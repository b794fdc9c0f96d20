#include "netlist/netlist.h"

#include <gtest/gtest.h>

namespace vpr::netlist {
namespace {

Netlist make_empty() {
  return Netlist{"t", CellLibrary::make({"45nm", 45.0}), 1.0};
}

/// PI -> INV -> DFF -> PO(Q) micro-netlist.
struct Micro {
  Netlist nl = make_empty();
  int pi = 0, mid = 0, q = 0;
  int inv = 0, dff = 0;
  Micro() {
    pi = nl.add_net();
    mid = nl.add_net();
    q = nl.add_net();
    nl.mark_primary_input(pi);
    const auto& lib = nl.library();
    inv = nl.add_cell(lib.find(Func::kInv, 2, Vt::kStandard), {pi}, mid);
    dff = nl.add_cell(lib.find(Func::kDff, 2, Vt::kStandard), {mid}, q);
    nl.mark_primary_output(q);
  }
};

TEST(Netlist, BuildMicroAndValidate) {
  Micro m;
  EXPECT_EQ(m.nl.cell_count(), 2);
  EXPECT_EQ(m.nl.net_count(), 3);
  EXPECT_NO_THROW(m.nl.validate());
  EXPECT_TRUE(m.nl.is_flip_flop(m.dff));
  EXPECT_FALSE(m.nl.is_flip_flop(m.inv));
  EXPECT_EQ(m.nl.flip_flop_count(), 1);
}

TEST(Netlist, RejectsDoubleDriver) {
  Micro m;
  const auto& lib = m.nl.library();
  EXPECT_THROW(
      m.nl.add_cell(lib.find(Func::kInv, 1, Vt::kStandard), {m.pi}, m.mid),
      std::logic_error);
}

TEST(Netlist, RejectsPinCountMismatch) {
  auto nl = make_empty();
  const int a = nl.add_net();
  const int out = nl.add_net();
  const auto& lib = nl.library();
  // NAND2 needs two fanins.
  EXPECT_THROW(nl.add_cell(lib.find(Func::kNand2, 1, Vt::kStandard), {a}, out),
               std::logic_error);
}

TEST(Netlist, RejectsBadNetIds) {
  auto nl = make_empty();
  const int out = nl.add_net();
  const auto& lib = nl.library();
  EXPECT_THROW(nl.add_cell(lib.find(Func::kInv, 1, Vt::kStandard), {42}, out),
               std::out_of_range);
  EXPECT_THROW(nl.mark_primary_input(9), std::out_of_range);
}

TEST(Netlist, PrimaryInputMustBeUndriven) {
  Micro m;
  EXPECT_THROW(m.nl.mark_primary_input(m.mid), std::logic_error);
}

TEST(Netlist, RetypePreservesFunction) {
  Micro m;
  const auto& lib = m.nl.library();
  const int faster = lib.find(Func::kInv, 4, Vt::kLow);
  m.nl.retype_cell(m.inv, faster);
  EXPECT_EQ(m.nl.cell_type(m.inv).drive, 4);
  EXPECT_NO_THROW(m.nl.validate());
  // Cross-function retype is rejected.
  EXPECT_THROW(
      m.nl.retype_cell(m.inv, lib.find(Func::kNand2, 2, Vt::kStandard)),
      std::logic_error);
}

TEST(Netlist, InsertBufferBeforeSplicesCorrectly) {
  Micro m;
  const auto& lib = m.nl.library();
  const int buf_type = lib.find(Func::kBuf, 1, Vt::kStandard);
  const int buf = m.nl.insert_buffer_before(m.dff, 0, buf_type);
  EXPECT_EQ(m.nl.cell_count(), 3);
  EXPECT_EQ(m.nl.net_count(), 4);
  // The buffer reads the old D net; the DFF now reads the buffer's output.
  EXPECT_EQ(m.nl.cell(buf).fanin_nets.front(), m.mid);
  EXPECT_EQ(m.nl.cell(m.dff).fanin_nets.front(), m.nl.cell(buf).fanout_net);
  EXPECT_NO_THROW(m.nl.validate());
}

TEST(Netlist, InsertBufferChainTwice) {
  Micro m;
  const auto& lib = m.nl.library();
  const int buf_type = lib.find(Func::kBuf, 1, Vt::kStandard);
  m.nl.insert_buffer_before(m.dff, 0, buf_type);
  m.nl.insert_buffer_before(m.dff, 0, buf_type);
  EXPECT_EQ(m.nl.cell_count(), 4);
  EXPECT_NO_THROW(m.nl.validate());
}

TEST(Netlist, InsertBufferRejectsNonBufferType) {
  Micro m;
  const auto& lib = m.nl.library();
  EXPECT_THROW(m.nl.insert_buffer_before(
                   m.dff, 0, lib.find(Func::kNand2, 1, Vt::kStandard)),
               std::logic_error);
}

TEST(Netlist, AggregateStats) {
  Micro m;
  EXPECT_GT(m.nl.total_area(), 0.0);
  EXPECT_GT(m.nl.total_leakage(), 0.0);
  // Two driven nets (mid: 1 sink, q: PO with 0 cell sinks) => 0.5 average.
  EXPECT_DOUBLE_EQ(m.nl.average_fanout(), 0.5);
}

TEST(Netlist, ActivityClamped) {
  Micro m;
  m.nl.set_cell_activity(m.inv, 2.0);
  EXPECT_DOUBLE_EQ(m.nl.cell(m.inv).activity, 1.0);
  m.nl.set_cell_activity(m.inv, -1.0);
  EXPECT_DOUBLE_EQ(m.nl.cell(m.inv).activity, 0.0);
}

TEST(Netlist, WeakCellFraction) {
  auto nl = make_empty();
  const auto& lib = nl.library();
  const int a = nl.add_net();
  nl.mark_primary_input(a);
  const int o1 = nl.add_net();
  const int o2 = nl.add_net();
  nl.add_cell(lib.find(Func::kInv, 1, Vt::kStandard), {a}, o1);
  nl.add_cell(lib.find(Func::kInv, 4, Vt::kStandard), {a}, o2);
  EXPECT_DOUBLE_EQ(nl.weak_cell_fraction(), 0.5);
}

}  // namespace
}  // namespace vpr::netlist

#pragma once
// Trace-to-layer reducer: turns the obs::TraceRecorder events of one traced
// phase into per-span-name inclusive/self times and a per-module table.
//
// Self time of a span is its duration minus the part of it covered by child
// spans on the same thread. Each module's `wall_ms` is its share of the
// phase's wall time: every instant is split evenly among the threads that
// have a span open then, and goes to the module of each thread's innermost
// span. Instants with no span open on any thread form the residual `glue`
// row (harness code between calls, and idle time), so the rows sum to the
// traced wall time exactly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "flow/eval.h"
#include "obs/trace.h"

namespace perfbench {

struct SpanStats {
  std::uint64_t count = 0;
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;  // one per span, for percentiles
  std::vector<double> self_each_ms;  // one per span, in close order
};

/// An async (begin/end by id) interval, e.g. serve.request -> serve.finish.
struct AsyncSpan {
  std::int64_t begin_us = 0;
  std::int64_t end_us = -1;  // -1 while unmatched
};

struct LayerTable {
  double wall_ms = 0.0;
  std::map<std::string, SpanStats> spans;      // by span name
  std::map<std::string, double> module_self_ms;  // summed over threads
  std::map<std::string, double> module_wall_ms;  // includes "glue"
  /// Complete spans that have no child span (by name), e.g. STA analyze
  /// calls that returned without a sweep.
  std::map<std::string, std::uint64_t> leaf_count;
  /// Async intervals by begin-event name, then by id.
  std::map<std::string, std::map<std::uint64_t, AsyncSpan>> async;
  /// Numeric args of complete spans, summed per (name, key).
  std::map<std::string, std::map<std::string, double>> span_arg_sum;

  [[nodiscard]] const SpanStats& span(const std::string& name) const;
  [[nodiscard]] double module_wall(const std::string& module) const;
  [[nodiscard]] double module_self(const std::string& module) const;
};

/// The module a span name belongs to (place, route, opt, sta, cts, flow,
/// netlist, nn, align, serve, client, ...).
[[nodiscard]] std::string module_of(const std::string& span_name);

/// Reduces the events that fall in [t0_us, t1_us] (recorder clock).
[[nodiscard]] LayerTable reduce_trace(
    const std::vector<vpr::obs::TraceEvent>& events, std::int64_t t0_us,
    std::int64_t t1_us);

/// What the common per-layer metrics are computed from.
struct LayerInputs {
  const LayerTable* table = nullptr;
  vpr::flow::FlowEvalStats flow_stats;  // FlowEval::stats() of the phase
  double untraced_wall_s = 0.0;  // the same work with tracing off ...
  double traced_wall_s = 0.0;    // ... and on
  double repeat_share = 0.0;     // share of the workload's inputs repeated
};

/// The modules of the per-module table, in report order (glue last).
[[nodiscard]] const std::vector<std::string>& report_modules();

/// Sets the per-layer metrics every workload derives the same way from the
/// trace: flow, place/route/opt/sta/cts, align training, nn, obs overhead,
/// input repeats and the per-module wall table.
void fill_common_layers(const LayerInputs& in, Result& out);

/// Sets the training layers (align.train_s, align.train_pairs_per_s,
/// nn.adam_step_s) from a traced phase that trained a model.
void fill_training_layers(const LayerTable& table, Result& out);

/// Prints the per-module table (busy self time, wall share) to stdout.
void print_layer_table(const std::string& title, const LayerTable& table);

}  // namespace perfbench

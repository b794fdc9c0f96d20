#include "util/args.h"

#include <gtest/gtest.h>

namespace vpr::util {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{argv};
  return Args{static_cast<int>(v.size()), v.data()};
}

TEST(Args, ProgramAndPositionals) {
  const auto args = parse({"prog", "one", "two"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"one", "two"}));
}

TEST(Args, EqualsSyntax) {
  const auto args = parse({"prog", "--count=5", "--name=x"});
  EXPECT_EQ(args.get_int("count", 0), 5);
  EXPECT_EQ(args.get_or("name", ""), "x");
}

TEST(Args, SpaceSyntax) {
  const auto args = parse({"prog", "--count", "7", "pos"});
  EXPECT_EQ(args.get_int("count", 0), 7);
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"pos"}));
}

TEST(Args, ValuelessFlag) {
  const auto args = parse({"prog", "--verbose", "--fast", "--count=1"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get("verbose").has_value());
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, FlagFollowedByFlagTakesNoValue) {
  const auto args = parse({"prog", "--a", "--b", "v"});
  EXPECT_FALSE(args.get("a").has_value());
  EXPECT_EQ(args.get_or("b", ""), "v");
}

TEST(Args, TypedGettersWithDefaults) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_TRUE(args.get_bool("b", true));
}

TEST(Args, DoubleParsing) {
  const auto args = parse({"prog", "--x=2.25"});
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.25);
}

TEST(Args, BoolValues) {
  const auto args = parse({"prog", "--a=true", "--b=0", "--c=yes"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
}

TEST(Args, MalformedValuesThrow) {
  const auto args = parse({"prog", "--n=abc", "--x=1.2.3", "--b=maybe"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_bool("b", false), std::invalid_argument);
}

TEST(Args, NumericFlagWithoutValueThrows) {
  // `--epochs --designs 1-2` must not silently train with the default.
  const auto args = parse({"prog", "--epochs", "--designs", "1-2", "--x"});
  EXPECT_THROW((void)args.get_int("epochs", 6), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0.5), std::invalid_argument);
  EXPECT_TRUE(args.get_bool("x", false));
}

TEST(Args, BareDoubleDashThrows) {
  EXPECT_THROW(parse({"prog", "--"}), std::invalid_argument);
}

}  // namespace
}  // namespace vpr::util

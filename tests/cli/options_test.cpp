// The insightalign binary's argument-validation helpers (cli/options.h),
// exercised in-process — these are the usage() exit-code-2 paths that the
// CLI smoke tests can only observe end to end. The strictness assertions
// pin the fix for the seed parser's silent std::stoi truncation ("8x" used
// to parse as 8).

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cli/options.h"
#include "util/args.h"

namespace vpr::cli {
namespace {

util::Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "insightalign");
  return util::Args{static_cast<int>(argv.size()), argv.data()};
}

std::string usage_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const UsageError& e) {
    return e.what();
  }
  return {};
}

TEST(ParseCommand, MapsEveryKnownCommand) {
  EXPECT_EQ(parse_command("suite"), Command::kSuite);
  EXPECT_EQ(parse_command("recipes"), Command::kRecipes);
  EXPECT_EQ(parse_command("run"), Command::kRun);
  EXPECT_EQ(parse_command("probe"), Command::kProbe);
  EXPECT_EQ(parse_command("align"), Command::kAlign);
  EXPECT_EQ(parse_command("recommend"), Command::kRecommend);
  EXPECT_EQ(parse_command("tune"), Command::kTune);
  EXPECT_EQ(parse_command("serve"), Command::kServe);
  EXPECT_EQ(parse_command("serve-bench"), Command::kServeBench);
  EXPECT_EQ(parse_command("metrics"), Command::kMetrics);
}

TEST(ParseOutputPath, AbsentPresentAndValueless) {
  EXPECT_FALSE(
      parse_output_path(make_args({"run"}), "trace-out").has_value());
  const auto path = parse_output_path(
      make_args({"run", "--trace-out=trace.json"}), "trace-out");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, "trace.json");
  // Space-separated form works through util::Args too.
  EXPECT_EQ(*parse_output_path(
                make_args({"run", "--metrics-out", "m.prom"}), "metrics-out"),
            "m.prom");
  // A bare flag must be an error, not a silently dropped output.
  EXPECT_THROW(
      (void)parse_output_path(make_args({"run", "--trace-out"}), "trace-out"),
      UsageError);
  const std::string message = usage_message([] {
    (void)parse_output_path(make_args({"run", "--trace-out"}), "trace-out");
  });
  EXPECT_NE(message.find("--trace-out requires a file path"),
            std::string::npos);
}

TEST(ParseMetricsFormat, StrictJsonOrPrometheus) {
  EXPECT_EQ(parse_metrics_format(make_args({"metrics"})),
            MetricsFormat::kJson);
  EXPECT_EQ(parse_metrics_format(make_args({"metrics", "--format=json"})),
            MetricsFormat::kJson);
  EXPECT_EQ(
      parse_metrics_format(make_args({"metrics", "--format=prometheus"})),
      MetricsFormat::kPrometheus);
  EXPECT_EQ(parse_metrics_format(make_args({"metrics", "--format=prom"})),
            MetricsFormat::kPrometheus);
  EXPECT_THROW(
      (void)parse_metrics_format(make_args({"metrics", "--format=xml"})),
      UsageError);
}

TEST(ParseCommand, UnknownCommandNamesTheOffender) {
  EXPECT_THROW((void)parse_command("server"), UsageError);
  const std::string message =
      usage_message([] { (void)parse_command("frobnicate"); });
  EXPECT_NE(message.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(ParsePort, StrictRange) {
  EXPECT_EQ(parse_port("9000", "serve --listen"), 9000);
  EXPECT_EQ(parse_port("1", "serve --listen"), 1);
  EXPECT_EQ(parse_port("65535", "serve --listen"), 65535);
  EXPECT_THROW((void)parse_port("0", "serve --listen"), UsageError);
  EXPECT_THROW((void)parse_port("65536", "serve --listen"), UsageError);
  EXPECT_THROW((void)parse_port("-1", "serve --listen"), UsageError);
  EXPECT_THROW((void)parse_port("9000x", "serve --listen"), UsageError);
  EXPECT_THROW((void)parse_port("", "serve --listen"), UsageError);
  const std::string message = usage_message(
      [] { (void)parse_port("70000", "serve --listen"); });
  EXPECT_NE(message.find("serve --listen"), std::string::npos);
  EXPECT_NE(message.find("out of range"), std::string::npos);
}

TEST(ParseHostPort, BarePortHostColonPortAndErrors) {
  const HostPort bare = parse_host_port("9000", "serve-bench --connect");
  EXPECT_EQ(bare.host, "127.0.0.1");  // loopback default
  EXPECT_EQ(bare.port, 9000);
  const HostPort full =
      parse_host_port("10.0.0.7:443", "serve-bench --connect");
  EXPECT_EQ(full.host, "10.0.0.7");
  EXPECT_EQ(full.port, 443);
  EXPECT_THROW(
      (void)parse_host_port(":9000", "serve-bench --connect"),  // empty host
      UsageError);
  EXPECT_THROW((void)parse_host_port("host:", "serve-bench --connect"),
               UsageError);
  EXPECT_THROW((void)parse_host_port("host:0", "serve-bench --connect"),
               UsageError);
  EXPECT_THROW((void)parse_host_port("just-a-host", "serve-bench --connect"),
               UsageError);
}

TEST(ParseIntList, ParsesAndRejectsStrictly) {
  EXPECT_EQ(parse_int_list("1,8,24"), (std::vector<int>{1, 8, 24}));
  EXPECT_EQ(parse_int_list("7"), (std::vector<int>{7}));
  EXPECT_TRUE(parse_int_list("").empty());
  // The regression this parser exists for: "8x" must not truncate to 8.
  EXPECT_THROW((void)parse_int_list("1,8x,24"), UsageError);
  EXPECT_THROW((void)parse_int_list("a"), UsageError);
  EXPECT_THROW((void)parse_int_list("1, 2"), UsageError);  // stray space
}

TEST(ParseDesignSpec, RangesListsAndErrors) {
  EXPECT_EQ(parse_design_spec("1-4"), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(parse_design_spec("3"), (std::vector<int>{3}));
  EXPECT_EQ(parse_design_spec("1,4,7"), (std::vector<int>{1, 4, 7}));
  EXPECT_EQ(parse_design_spec("5-5"), (std::vector<int>{5}));
  EXPECT_THROW((void)parse_design_spec("6-1"), UsageError);  // empty range
  EXPECT_THROW((void)parse_design_spec("1-"), UsageError);
  EXPECT_THROW((void)parse_design_spec("-3"), UsageError);
  EXPECT_THROW((void)parse_design_spec("1-3x"), UsageError);
}

TEST(ParseDesignIndex, ValidatesPresenceTypeAndRange) {
  EXPECT_EQ(parse_design_index(make_args({"--design", "5"}), "run", 17), 5);
  // Missing flag falls through to the range check (0 is never valid).
  EXPECT_THROW((void)parse_design_index(make_args({}), "run", 17),
               UsageError);
  EXPECT_THROW(
      (void)parse_design_index(make_args({"--design", "18"}), "run", 17),
      UsageError);
  EXPECT_THROW(
      (void)parse_design_index(make_args({"--design", "zero"}), "probe", 17),
      UsageError);
  const std::string message = usage_message([&] {
    (void)parse_design_index(make_args({"--design", "99"}), "probe", 17);
  });
  EXPECT_NE(message.find("probe"), std::string::npos);
  EXPECT_NE(message.find("1..17"), std::string::npos);
}

TEST(ParseBoundedInt, ServeResourceFlagsAreCappedBeforeStart) {
  // Called directly: launching `serve` with an over-cap value would start
  // that many threads if the check were wrong.
  EXPECT_EQ(parse_bounded_int(make_args({}), "replicas", 2,
                              kMaxServeReplicas, "serve"),
            2);
  EXPECT_EQ(parse_bounded_int(make_args({"--replicas", "64"}), "replicas", 2,
                              kMaxServeReplicas, "serve"),
            64);
  EXPECT_THROW((void)parse_bounded_int(make_args({"--replicas", "65"}),
                                       "replicas", 2, kMaxServeReplicas,
                                       "serve"),
               UsageError);
  EXPECT_THROW((void)parse_bounded_int(make_args({"--max-inflight", "1025"}),
                                       "max-inflight", 8, kMaxServeInflight,
                                       "serve"),
               UsageError);
  EXPECT_THROW((void)parse_bounded_int(make_args({"--width", "0"}), "width",
                                       8, kMaxServeWidth, "serve"),
               UsageError);
  EXPECT_THROW((void)parse_bounded_int(make_args({"--width", "many"}),
                                       "width", 8, kMaxServeWidth, "serve"),
               UsageError);
  EXPECT_THROW((void)parse_bounded_int(make_args({"--width", "--replicas",
                                                  "2"}),
                                       "width", 8, kMaxServeWidth, "serve"),
               UsageError);
  const std::string message = usage_message([&] {
    (void)parse_bounded_int(make_args({"--replicas", "100000"}), "replicas",
                            2, kMaxServeReplicas, "serve");
  });
  EXPECT_NE(message.find("--replicas"), std::string::npos);
  EXPECT_NE(message.find("1..64"), std::string::npos);
}

TEST(RequireReadable, AcceptsExistingRejectsMissing) {
  const std::string path = ::testing::TempDir() + "options_test_model.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("x", f);
    std::fclose(f);
  }
  EXPECT_NO_THROW(require_readable(path, "model"));
  std::remove(path.c_str());
  EXPECT_THROW(require_readable(path, "model"), UsageError);
  const std::string message = usage_message(
      [&] { require_readable("/nonexistent/model.bin", "model"); });
  EXPECT_NE(message.find("cannot read model /nonexistent/model.bin"),
            std::string::npos);
}

}  // namespace
}  // namespace vpr::cli

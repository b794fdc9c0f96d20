// serve::Router — sharded placement and overload policy. Placement must
// respect queue depth (a backed-up replica stops attracting traffic),
// shedding must start at exactly one utilization threshold (and on a
// full fleet), shed responses must resolve immediately with a
// Retry-After hint drawn from the replicas' measured service time, and
// responses routed through the fleet must stay bitwise identical to
// per-request beam_search. pause() on individual replicas makes the load
// states deterministic on one core.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "align/beam.h"
#include "serve/client.h"
#include "serve/router.h"
#include "util/rng.h"

namespace vpr::serve {
namespace {

using namespace std::chrono_literals;

align::RecipeModel test_model() {
  util::Rng rng{7};
  return align::RecipeModel{align::ModelConfig{}, rng};
}

TEST(Router, RoutedResponsesMatchPerRequestBeamSearch) {
  // The sharding must not cost correctness: every response from a
  // 2-replica fleet is bitwise equal to a fresh lone beam_search.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  constexpr int kWidth = 4;

  RouterConfig config;
  config.replicas = 2;
  Router router{model, config};
  std::vector<std::future<Response>> futures;
  for (const auto& iv : insights) {
    futures.push_back(router.submit(iv, kWidth, Router::kNoDeadline));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_EQ(response.status, Status::kOk) << "design " << i + 1;
    const auto expected = align::beam_search(model, insights[i], kWidth);
    ASSERT_EQ(response.candidates.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(response.candidates[r].recipes, expected[r].recipes);
      EXPECT_EQ(response.candidates[r].log_prob, expected[r].log_prob);
    }
  }

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.routed, insights.size());
  EXPECT_EQ(counters.shed, 0U);
  EXPECT_EQ(counters.total_completed(), insights.size());
  ASSERT_EQ(counters.replica.size(), 2U);
  std::uint64_t submitted = 0;
  for (const ServiceCounters& c : counters.replica) submitted += c.submitted;
  EXPECT_EQ(submitted, insights.size());
}

TEST(Router, PlacementAvoidsBackedUpReplica) {
  // Preload replica 0 while both batchers are frozen: new traffic must
  // land on the shallow replica 1, not round-robin blindly.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 2;
  config.replica.queue_capacity = 16;
  Router router{model, config};
  router.replica(0).pause();
  router.replica(1).pause();

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(router.replica(0).submit(insights[0], 2));
  }
  for (int i = 0; i < 2; ++i) {
    futures.push_back(router.submit(insights[1], 2, Router::kNoDeadline));
  }
  // The two routed submissions went to replica 1 (replica 0's backlog of 4
  // dwarfs replica 1's, even mid-placement).
  EXPECT_EQ(router.replica(1).counters().submitted, 2U);
  EXPECT_EQ(router.counters().routed, 2U);

  router.replica(0).resume();
  router.replica(1).resume();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  router.stop();
}

TEST(Router, ShedsAtOneUtilizationThreshold) {
  // One replica, queue capacity 8, batcher frozen: shedding starts when
  // the queue holds 6 (utilization 0.75) and not before. The frozen
  // batcher may pop one request (and hold it) at any moment, so each
  // submission is judged against the depth read just before it (the
  // router's own read is no larger) and just after it.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 1;
  config.replica.queue_capacity = 8;
  config.replica.max_inflight = 2;
  Router router{model, config};
  RecommendService& replica = router.replica(0);
  replica.pause();

  const auto is_ready = [](std::future<Response>& f) {
    return f.wait_for(0s) == std::future_status::ready;
  };
  const auto expect_shed_fast = [&](std::future<Response>& f) {
    ASSERT_TRUE(is_ready(f)) << "a shed must not wait for the batcher";
    const Response response = f.get();
    EXPECT_EQ(response.status, Status::kRejected);
    EXPECT_GE(response.retry_after_ms, 1.0);
  };

  std::vector<std::future<Response>> accepted;
  std::uint64_t shed = 0;
  for (int i = 0; i < 12 && shed == 0; ++i) {
    const std::size_t before = replica.queue_depth();
    auto f = router.submit(insights[0], 2);
    const std::size_t after = replica.queue_depth();
    if (is_ready(f)) {
      EXPECT_GE(before, 6U) << "shed below utilization 0.75";
      expect_shed_fast(f);
      ++shed;
    } else {
      EXPECT_LE(after, 6U) << "accepted at utilization >= 0.75";
      accepted.push_back(std::move(f));
    }
  }
  ASSERT_EQ(shed, 1U) << "never shed";
  const std::size_t routed = accepted.size();
  EXPECT_GE(routed, 5U);

  // A completely full fleet sheds too: fill the queue directly until the
  // replica itself refuses, then go through the router.
  for (int i = 0; i < 8; ++i) {
    auto f = replica.submit(insights[0], 2);
    if (is_ready(f)) {
      EXPECT_EQ(f.get().status, Status::kRejected);
      break;
    }
    accepted.push_back(std::move(f));
  }
  EXPECT_GE(replica.queue_depth(), 7U);
  auto full = router.submit(insights[0], 2);
  expect_shed_fast(full);
  ++shed;

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.shed, shed);
  EXPECT_EQ(counters.routed, routed);

  replica.resume();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  router.stop();
}

TEST(Router, ShedsRequestsWithoutDeadlineSlack) {
  // A queued backlog of >= 4 with no measured drain rate estimates >= 40ms
  // of wait (cold-start pessimism); a 10ms-deadline request would expire
  // in the queue and is shed up front, while a generous deadline rides.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 1;
  config.replica.queue_capacity = 64;
  Router router{model, config};
  router.replica(0).pause();

  std::vector<std::future<Response>> accepted;
  for (int i = 0; i < 5; ++i) {
    accepted.push_back(router.submit(insights[0], 2, Router::kNoDeadline));
  }
  auto hopeless = router.submit(insights[0], 2, 10ms);
  ASSERT_EQ(hopeless.wait_for(0s), std::future_status::ready);
  const Response shed_response = hopeless.get();
  EXPECT_EQ(shed_response.status, Status::kRejected);
  EXPECT_GE(shed_response.retry_after_ms, 40.0);

  accepted.push_back(router.submit(insights[0], 2, 60'000ms));
  router.replica(0).resume();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  router.stop();
}

TEST(Router, DrainEstimateUsesMeasuredServiceTime) {
  // After real completions the drain estimate is the fleet backlog over
  // the sum of the replicas' measured rates (finished / busy time), not
  // the cold-start 10 ms per request.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 2;
  Router router{model, config};
  EXPECT_EQ(router.estimated_drain_ms(), 0.0);  // idle fleet

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(router.submit(
        insights[static_cast<std::size_t>(i % kBenchSuiteDesigns)], 2));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, Status::kOk);
  }
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.routed, 16U);
  EXPECT_EQ(counters.total_completed(), 16U);
  EXPECT_EQ(router.utilization(), 0.0);  // drained

  // Freeze both replicas once idle, then queue a backlog.
  for (int i = 0; i < router.replicas(); ++i) {
    for (int spin = 0; spin < 5000 && router.replica(i).inflight() > 0;
         ++spin) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(router.replica(i).inflight(), 0);
    router.replica(i).pause();
  }
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 6; ++i) queued.push_back(router.submit(insights[0], 2));

  double rate = 0.0;  // requests per ms, fleet-wide
  for (int i = 0; i < router.replicas(); ++i) {
    const RecommendService& r = router.replica(i);
    ASSERT_GT(r.finished(), 0U) << "replica " << i << " got no traffic";
    ASSERT_GT(r.busy_ms(), 0.0);
    rate += 1.0 / (r.busy_ms() / static_cast<double>(r.finished()));
  }
  const auto backlog = [&] {
    std::size_t total = 0;
    for (int i = 0; i < router.replicas(); ++i) {
      total += router.replica(i).queue_depth() +
               static_cast<std::size_t>(router.replica(i).inflight());
    }
    return total;
  };
  // A frozen batcher may still pop (and hold) one request; read until the
  // backlog is the same on both sides of the estimate.
  std::size_t depth = 0;
  double estimate = 0.0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    depth = backlog();
    estimate = router.estimated_drain_ms();
    if (backlog() == depth) break;
  }
  ASSERT_GT(depth, 0U);
  EXPECT_DOUBLE_EQ(estimate, static_cast<double>(depth) / rate);
  EXPECT_NE(estimate, static_cast<double>(depth) *
                          Router::kColdStartMsPerRequest / 2.0);

  for (int i = 0; i < router.replicas(); ++i) router.replica(i).resume();
  for (auto& f : queued) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  router.stop();
}

TEST(Router, StopShutsDownAndValidatesInput) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  RouterConfig config;
  config.replicas = 2;
  Router router{model, config};

  EXPECT_THROW((void)router.submit(std::vector<double>(3, 0.0), 2),
               std::invalid_argument);
  EXPECT_THROW((void)router.submit(insights[0], 0), std::invalid_argument);

  router.stop();
  auto late = router.submit(insights[0], 2);
  EXPECT_EQ(late.get().status, Status::kShutdown);
  router.stop();  // idempotent

  EXPECT_THROW((Router{model, RouterConfig{.replicas = 0, .replica = {}}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vpr::serve

// serve::Router — sharded placement and overload policy. Placement must
// respect queue depth (a backed-up replica stops attracting traffic),
// shed ordering must follow the priority classes (batch first, normal
// next, interactive only when every queue is full), shed responses must
// resolve immediately with a Retry-After hint, and responses routed
// through the fleet must stay bitwise identical to per-request
// beam_search. pause() on individual replicas makes the load states
// deterministic on one core.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
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
    futures.push_back(
        router.submit(iv, kWidth, Router::kNoDeadline, Priority::kNormal));
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
    futures.push_back(router.submit(insights[1], 2, Router::kNoDeadline,
                                    Priority::kInteractive));
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

TEST(Router, ShedsByPriorityClassUnderLoad) {
  // One replica, queue capacity 8, batcher frozen. Utilization climbs as
  // interactive traffic queues; batch sheds at 0.50, normal at 0.75, and
  // interactive only once the queue is entirely full. Shed responses
  // resolve immediately (no batcher involvement) with a retry hint.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 1;
  config.replica.queue_capacity = 8;
  config.replica.max_inflight = 2;
  Router router{model, config};
  router.replica(0).pause();

  std::vector<std::future<Response>> accepted;
  const auto submit = [&](Priority priority) {
    return router.submit(insights[0], 2, Router::kNoDeadline, priority);
  };
  const auto is_shed = [](std::future<Response>& f) {
    return f.wait_for(0s) == std::future_status::ready;
  };

  // Queue depth >= 4 (utilization >= 0.50): batch sheds, normal rides.
  for (int i = 0; i < 5; ++i) accepted.push_back(submit(Priority::kInteractive));
  auto shed_batch = submit(Priority::kBatch);
  ASSERT_TRUE(is_shed(shed_batch));
  const Response batch_response = shed_batch.get();
  EXPECT_EQ(batch_response.status, Status::kRejected);
  EXPECT_GE(batch_response.retry_after_ms, 1.0);

  // Queue depth >= 6 (utilization >= 0.75): normal sheds too.
  for (int i = 0; i < 2; ++i) accepted.push_back(submit(Priority::kInteractive));
  auto shed_normal = submit(Priority::kNormal);
  ASSERT_TRUE(is_shed(shed_normal));
  EXPECT_EQ(shed_normal.get().status, Status::kRejected);

  // Fill the queue completely: even interactive traffic sheds, with the
  // cold-start drain estimate as the hint (backlog x 10 ms).
  std::future<Response> shed_interactive;
  for (int i = 0; i < 4; ++i) {
    auto f = submit(Priority::kInteractive);
    if (is_shed(f)) {
      shed_interactive = std::move(f);
      break;
    }
    accepted.push_back(std::move(f));
  }
  ASSERT_TRUE(shed_interactive.valid()) << "queue never filled";
  const Response interactive_response = shed_interactive.get();
  EXPECT_EQ(interactive_response.status, Status::kRejected);
  EXPECT_GE(interactive_response.retry_after_ms, 1.0);

  const RouterCounters counters = router.counters();
  EXPECT_GE(counters.shed, 3U);
  EXPECT_EQ(counters.routed, accepted.size());

  router.replica(0).resume();
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
    accepted.push_back(router.submit(insights[0], 2, Router::kNoDeadline,
                                     Priority::kInteractive));
  }
  auto hopeless = router.submit(insights[0], 2, 10ms, Priority::kInteractive);
  ASSERT_EQ(hopeless.wait_for(0s), std::future_status::ready);
  const Response shed_response = hopeless.get();
  EXPECT_EQ(shed_response.status, Status::kRejected);
  EXPECT_GE(shed_response.retry_after_ms, 40.0);

  accepted.push_back(
      router.submit(insights[0], 2, 60'000ms, Priority::kInteractive));
  router.replica(0).resume();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  router.stop();
}

TEST(Router, RebalanceMeasuresDrainRatesAndCounts) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  RouterConfig config;
  config.replicas = 2;
  config.rebalance_interval = 4;  // auto-rebalance during the burst
  Router router{model, config};
  EXPECT_EQ(router.estimated_drain_ms(), 0.0);  // idle fleet

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(router.submit(
        insights[static_cast<std::size_t>(i % kBenchSuiteDesigns)], 2,
        Router::kNoDeadline, Priority::kNormal));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, Status::kOk);
  }
  router.rebalance();  // final snapshot after completions

  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.routed, 16U);
  EXPECT_GE(counters.rebalances, 4U);  // 16 placements / interval 4, + final
  EXPECT_EQ(counters.total_completed(), 16U);
  EXPECT_EQ(router.utilization(), 0.0);  // drained
  router.stop();
}

TEST(Router, StopShutsDownAndValidatesInput) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  RouterConfig config;
  config.replicas = 2;
  Router router{model, config};

  EXPECT_THROW(
      (void)router.submit(std::vector<double>(3, 0.0), 2,
                          Router::kNoDeadline, Priority::kNormal),
      std::invalid_argument);
  EXPECT_THROW((void)router.submit(insights[0], 0, Router::kNoDeadline,
                                   Priority::kNormal),
               std::invalid_argument);

  router.stop();
  auto late = router.submit(insights[0], 2, Router::kNoDeadline,
                            Priority::kInteractive);
  EXPECT_EQ(late.get().status, Status::kShutdown);
  router.stop();  // idempotent

  EXPECT_THROW((Router{model, RouterConfig{.replicas = 0}}),
               std::invalid_argument);
  RouterConfig inverted;
  inverted.shed_normal = 0.4;
  inverted.shed_batch = 0.6;  // batch must shed first
  EXPECT_THROW((Router{model, inverted}), std::invalid_argument);
}

}  // namespace
}  // namespace vpr::serve

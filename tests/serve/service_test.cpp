// RecommendService: cross-request batched serving must be bitwise
// identical to per-request beam_search (and, transitively, to the tape
// reference oracle), and the service-level behaviours — admission
// backpressure, deadlines, drain-on-stop, arena reuse — must be
// deterministic enough to assert. pause()/resume() freeze the batcher
// between ticks, which is what makes the queue-full and deadline cases
// reproducible on one core.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "align/beam.h"
#include "obs/quantile.h"
#include "obs/trace.h"
#include "serve/arena.h"
#include "serve/client.h"
#include "serve/service.h"
#include "util/rng.h"

namespace vpr::serve {
namespace {

using namespace std::chrono_literals;

align::RecipeModel test_model() {
  util::Rng rng{7};
  return align::RecipeModel{align::ModelConfig{}, rng};
}

TEST(RecommendService, BatchedMatchesPerRequestBeamSearchAllSuiteDesigns) {
  // The PR's acceptance bar: every batched response — decoded concurrently
  // with up to 7 other requests sharing each forward — is bitwise equal to
  // a fresh single-request beam_search over the same insight, across all
  // 17 suite designs. One design is also checked against the tape-driven
  // reference oracle, closing the chain batched == serial == tape.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  constexpr int kWidth = 4;

  ServiceConfig config;
  config.max_inflight = 8;
  config.queue_capacity = 32;
  RecommendService service{model, config};
  std::vector<std::future<Response>> futures;
  futures.reserve(insights.size());
  for (const auto& iv : insights) {
    futures.push_back(service.submit(iv, kWidth));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_EQ(response.status, Status::kOk) << "design " << i + 1;
    const auto expected = align::beam_search(model, insights[i], kWidth);
    ASSERT_EQ(response.candidates.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(response.candidates[r].recipes, expected[r].recipes)
          << "design " << i + 1 << " rank " << r;
      EXPECT_EQ(response.candidates[r].log_prob, expected[r].log_prob)
          << "design " << i + 1 << " rank " << r;
    }
    EXPECT_GE(response.total_ms, response.queue_ms);
  }

  const auto oracle = align::beam_search_reference(model, insights[0], kWidth);
  const Response again = service.recommend(insights[0], kWidth);
  ASSERT_EQ(again.status, Status::kOk);
  ASSERT_EQ(again.candidates.size(), oracle.size());
  for (std::size_t r = 0; r < oracle.size(); ++r) {
    EXPECT_EQ(again.candidates[r].recipes, oracle[r].recipes);
    EXPECT_EQ(again.candidates[r].log_prob, oracle[r].log_prob);
  }

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, insights.size() + 1);
  EXPECT_EQ(counters.completed, insights.size() + 1);
  EXPECT_GT(counters.ticks, 0U);
  EXPECT_GT(counters.mean_batch_lanes, 1.0);
  EXPECT_LE(counters.peak_inflight, 8U);
}

TEST(RecommendService, RejectsWhenAdmissionQueueIsFull) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  ServiceConfig config;
  config.max_inflight = 1;
  config.queue_capacity = 2;
  RecommendService service{model, config};
  service.pause();  // freeze the batcher so nothing drains

  // capacity + 2 submissions while paused: at most max_inflight may have
  // been admitted before the pause landed, so at least one submission must
  // overflow the queue and reject immediately.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(insights[0], 2));
  }
  int rejected = 0;
  for (auto& f : futures) {
    // Rejected futures resolve without the batcher running.
    if (f.wait_for(0s) == std::future_status::ready &&
        f.get().status == Status::kRejected) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_GE(service.counters().rejected, 1U);
  service.resume();
}

TEST(RecommendService, DeadlineExpiresToTimedOut) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  RecommendService service{model, ServiceConfig{}};
  service.pause();
  auto doomed = service.submit(insights[0], 2, 5ms);
  std::this_thread::sleep_for(20ms);  // deadline passes while frozen
  service.resume();
  EXPECT_EQ(doomed.get().status, Status::kTimedOut);
  EXPECT_GE(service.counters().timed_out, 1U);

  // A generous deadline still completes.
  const Response ok = service.recommend(insights[1], 2, 10'000ms);
  EXPECT_EQ(ok.status, Status::kOk);
}

TEST(RecommendService, StopDrainsAndShutsDownFurtherSubmissions) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  RecommendService service{model, ServiceConfig{}};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.submit(insights[static_cast<std::size_t>(i)], 3));
  }
  service.stop();  // drains everything queued and in flight
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  EXPECT_EQ(service.counters().completed, 5U);

  auto late = service.submit(insights[0], 3);
  EXPECT_EQ(late.get().status, Status::kShutdown);
  service.stop();  // idempotent
}

TEST(RecommendService, RejectsMalformedRequests) {
  const auto model = test_model();
  RecommendService service{model, ServiceConfig{}};
  EXPECT_THROW((void)service.submit(std::vector<double>(3, 0.0), 2),
               std::invalid_argument);
  const auto insights = bench_suite_insights(model.config().insight_dim);
  EXPECT_THROW((void)service.submit(insights[0], 0), std::invalid_argument);
  EXPECT_THROW(
      (void)service.submit(insights[0], service.config().max_beam_width + 1),
      std::invalid_argument);

  EXPECT_THROW((RecommendService{model, ServiceConfig{.max_inflight = 0}}),
               std::invalid_argument);
  EXPECT_THROW((RecommendService{model, ServiceConfig{.max_beam_width = 0}}),
               std::invalid_argument);
}

TEST(RecommendService, ArenaRecyclesSessionsAcrossRequests) {
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  ServiceConfig config;
  config.max_inflight = 2;
  RecommendService service{model, config};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      const Response r =
          service.recommend(insights[static_cast<std::size_t>(i)], 2);
      ASSERT_EQ(r.status, Status::kOk);
    }
  }
  const ServiceCounters counters = service.counters();
  // At most max_inflight sessions are ever constructed; everything after
  // the pool fills is served by rebind().
  EXPECT_LE(counters.sessions_created, 2);
  EXPECT_EQ(counters.sessions_created + counters.session_reuses, 12);
}

TEST(RecommendService, TraceIdConnectsAdmissionBatchAndFinish) {
  // The PR's tracing acceptance bar: the correlation id handed back in
  // Response.trace_id appears on the request's async begin (submit), the
  // serve.admit marker, at least one per-tick serve.batch marker, and the
  // closing serve.finish event — one connected track in Perfetto.
  auto& recorder = obs::TraceRecorder::instance();
  recorder.set_enabled(false);
  recorder.clear();
  recorder.set_enabled(true);

  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  Response first;
  Response second;
  {
    RecommendService service{model, {}};
    first = service.recommend(insights[0], 4);
    second = service.recommend(insights[1], 4);
  }
  recorder.set_enabled(false);

  ASSERT_EQ(first.status, Status::kOk);
  ASSERT_EQ(second.status, Status::kOk);
  ASSERT_NE(first.trace_id, 0u);
  ASSERT_NE(second.trace_id, 0u);
  EXPECT_NE(first.trace_id, second.trace_id);

  int begins = 0, admits = 0, batches = 0, ends = 0;
  std::uint32_t begin_tid = 0, batch_tid = 0;
  for (const obs::TraceEvent& e : recorder.snapshot()) {
    if (e.id != first.trace_id) continue;
    if (e.phase == 'b' && e.name == "serve.request") {
      ++begins;
      begin_tid = e.tid;
    } else if (e.phase == 'n' && e.name == "serve.admit") {
      ++admits;
    } else if (e.phase == 'n' && e.name == "serve.batch") {
      ++batches;
      batch_tid = e.tid;
    } else if (e.phase == 'e') {
      ++ends;
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(admits, 1);
  EXPECT_GE(batches, 1);  // one marker per tick the request was decoded in
  EXPECT_EQ(ends, 1);
  // submit() runs on the caller, the batch markers on the batcher thread:
  // the id is what stitches them into one track.
  EXPECT_NE(begin_tid, batch_tid);
  recorder.clear();
}

TEST(RecommendService, CountersArePerInstance) {
  // Two services in one process: each instance's counters() must report
  // only its own traffic even though both feed the same process-wide
  // serve.* registry series. (The router's per-replica occupancy report
  // depends on this: replicas live side by side in one process.)
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  RecommendService a{model, {}};
  ASSERT_EQ(a.recommend(insights[0], 2).status, Status::kOk);
  ASSERT_EQ(a.recommend(insights[1], 2).status, Status::kOk);

  RecommendService b{model, {}};
  ASSERT_EQ(b.recommend(insights[2], 2).status, Status::kOk);

  const ServiceCounters ca = a.counters();
  const ServiceCounters cb = b.counters();
  // The old registry-delta scheme leaked b's traffic into a's snapshot
  // (a reported 3 submitted); instance atomics isolate them completely.
  EXPECT_EQ(ca.submitted, 2u);
  EXPECT_EQ(ca.completed, 2u);
  EXPECT_EQ(cb.submitted, 1u);
  EXPECT_EQ(cb.completed, 1u);
  EXPECT_GE(ca.ticks, cb.ticks);
}

TEST(RecommendService, CounterPercentilesComeFromTheLatencySketch) {
  // counters() quotes its percentiles from the same full-history sketch
  // the router merges for fleet tails, so the two can never disagree.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);
  RecommendService service{model, {}};
  for (const auto& insight : insights) {
    ASSERT_EQ(service.recommend(insight, 2).status, Status::kOk);
  }
  const ServiceCounters c = service.counters();
  const obs::QuantileSketch sketch = service.latency_sketch();
  ASSERT_EQ(c.completed, insights.size());
  ASSERT_EQ(sketch.count(), insights.size());
  EXPECT_EQ(c.p50_latency_ms, sketch.quantile(0.50));
  EXPECT_EQ(c.p95_latency_ms, sketch.quantile(0.95));
  EXPECT_EQ(c.p99_latency_ms, sketch.quantile(0.99));
  EXPECT_EQ(c.p999_latency_ms, sketch.quantile(0.999));
  EXPECT_GT(c.p50_latency_ms, 0.0);
  EXPECT_LE(c.p50_latency_ms, c.p999_latency_ms);
}

TEST(RecommendService, ShutdownRaceNeverMisreportsRejection) {
  // Regression for the submit-vs-stop race: try_push returned false both
  // when the queue was full and when it was closed, so a submission that
  // lost the race against stop() was reported kRejected ("retry later")
  // instead of kShutdown. With a queue that can never fill, every refused
  // submission must be kShutdown and the rejected counter must stay 0.
  // Run under TSan to check the tri-state push's locking too.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  for (int round = 0; round < 8; ++round) {
    ServiceConfig config;
    config.max_inflight = 4;
    config.queue_capacity = 4096;  // cannot fill: any kRejected is a bug
    RecommendService service{model, config};

    constexpr int kThreads = 4;
    constexpr int kPerThread = 16;
    std::vector<std::vector<std::future<Response>>> futures(kThreads);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          futures[static_cast<std::size_t>(t)].push_back(
              service.submit(insights[static_cast<std::size_t>(
                                 i % kBenchSuiteDesigns)],
                             2));
        }
      });
    }
    service.stop();  // races the submitters
    for (auto& thread : submitters) thread.join();

    int ok = 0;
    int shutdown = 0;
    for (auto& per_thread : futures) {
      for (auto& f : per_thread) {
        const Status status = f.get().status;
        EXPECT_TRUE(status == Status::kOk || status == Status::kShutdown)
            << "status " << to_string(status);
        if (status == Status::kOk) ++ok;
        if (status == Status::kShutdown) ++shutdown;
      }
    }
    EXPECT_EQ(ok + shutdown, kThreads * kPerThread);

    const ServiceCounters counters = service.counters();
    EXPECT_EQ(counters.rejected, 0U);
    EXPECT_EQ(counters.submitted, static_cast<std::uint64_t>(ok));
    EXPECT_EQ(counters.completed, static_cast<std::uint64_t>(ok));
    EXPECT_EQ(counters.shutdown_refused,
              static_cast<std::uint64_t>(shutdown));
  }
}

TEST(RecommendService, BurstNeverConstructsMoreThanMaxInflightSessions) {
  // The batcher's max_inflight admission loop is the only bound on live
  // decode sessions: a burst admitted all at once must complete in full
  // on at most max_inflight constructed sessions, the rest rebound.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  ServiceConfig config;
  config.max_inflight = 2;
  config.queue_capacity = 16;
  RecommendService service{model, config};
  service.pause();  // queue all eight, then admit them in one burst
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(insights[static_cast<std::size_t>(i)], 2));
  }
  service.resume();

  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);
  const ServiceCounters counters = service.counters();
  EXPECT_LE(counters.sessions_created, 2);
  EXPECT_EQ(counters.sessions_created + counters.session_reuses, 8);
}

TEST(RecommendService, SubmittedCountsOnlyAcceptedRequests) {
  // serve.submitted means "accepted into the admission queue": rejected
  // and shutdown-refused submissions must not inflate it, so
  // completed + timed_out can never exceed submitted.
  const auto model = test_model();
  const auto insights = bench_suite_insights(model.config().insight_dim);

  ServiceConfig config;
  config.max_inflight = 1;
  config.queue_capacity = 2;
  RecommendService service{model, config};
  service.pause();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(insights[0], 2));
  }
  service.resume();
  int rejected = 0;
  for (auto& f : futures) {
    if (f.get().status == Status::kRejected) ++rejected;
  }
  EXPECT_GE(rejected, 1);  // 6 submissions into inflight 1 + queue 2

  service.stop();
  auto late = service.submit(insights[0], 2);
  EXPECT_EQ(late.get().status, Status::kShutdown);

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.submitted, static_cast<std::uint64_t>(6 - rejected));
  EXPECT_EQ(counters.rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(counters.shutdown_refused, 1U);
  EXPECT_EQ(counters.completed + counters.timed_out, counters.submitted);
}

TEST(SessionArena, AcquireReleaseAndRecycle) {
  const auto model = test_model();
  util::Rng rng{99};
  std::vector<double> iv(
      static_cast<std::size_t>(model.config().insight_dim));
  for (double& v : iv) v = rng.normal() * 0.5;
  iv.back() = 1.0;

  SessionArena arena{model, 4};
  align::DecodeSession* a = arena.acquire(iv);
  align::DecodeSession* b = arena.acquire(iv);
  ASSERT_NE(a, b);
  arena.release(a);
  align::DecodeSession* c = arena.acquire(iv);
  EXPECT_EQ(c, a);  // recycled, not reconstructed
  EXPECT_EQ(arena.created(), 2);
  EXPECT_EQ(arena.reuses(), 1);
  EXPECT_EQ(c->lanes(), 4);
  arena.release(b);
  arena.release(c);
}

}  // namespace
}  // namespace vpr::serve

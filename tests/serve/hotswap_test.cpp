// Zero-downtime hot swap in RecommendService. Two guarantees under test:
//
//  1. Version pinning — a request admitted under version v finishes
//     bitwise on v's weights no matter what the registry publishes while
//     it decodes, and reports v in Response.model_version.
//  2. Swap-under-load — with submitters and a publisher hammering the
//     service concurrently, every response still matches the beam-search
//     oracle of the version it reports, no request is lost, and the
//     batcher adopts the newest version once traffic drains.
//
// The stress test scales with INSIGHTALIGN_HOTSWAP_CHURN (an integer
// multiplier, default 1) so the CI tsan-hotswap leg can run the same
// binary with far more churn than the tier-1 gate pays for.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "align/beam.h"
#include "align/recipe_model.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "util/rng.h"

namespace vpr::serve {
namespace {

using namespace std::chrono_literals;

/// Version v's weights as a pure function of v, so the oracle for a
/// version can be rebuilt without holding the published object.
std::vector<double> version_state(std::uint64_t v) {
  util::Rng rng{util::hash_combine(0xa11c3a7ULL, v)};
  align::RecipeModel model{align::ModelConfig{}, rng};
  return model.state();
}

align::RecipeModel version_model(std::uint64_t v) {
  util::Rng rng{util::hash_combine(0xa11c3a7ULL, v)};
  return align::RecipeModel{align::ModelConfig{}, rng};
}

int churn_multiplier() {
  const char* env = std::getenv("INSIGHTALIGN_HOTSWAP_CHURN");
  if (env == nullptr) return 1;
  const int value = std::atoi(env);
  return value >= 1 ? value : 1;
}

void expect_bitwise(const Response& response,
                    const std::vector<align::BeamCandidate>& oracle,
                    const char* what) {
  ASSERT_EQ(response.candidates.size(), oracle.size()) << what;
  for (std::size_t r = 0; r < oracle.size(); ++r) {
    EXPECT_EQ(response.candidates[r].recipes, oracle[r].recipes)
        << what << " rank " << r;
    EXPECT_EQ(response.candidates[r].log_prob, oracle[r].log_prob)
        << what << " rank " << r;
  }
}

TEST(HotswapTest, RegistryServiceRequiresAPublishedVersion) {
  auto registry = std::make_shared<ModelRegistry>(align::ModelConfig{});
  EXPECT_THROW((RecommendService{registry, ServiceConfig{}}),
               std::invalid_argument);
}

TEST(HotswapTest, VersionPinning) {
  // A request admitted on v1 must finish bitwise on v1 even though v2
  // publishes while it is in flight; the next request decodes on v2.
  auto registry = std::make_shared<ModelRegistry>(align::ModelConfig{});
  registry->publish(version_state(1), "v1");
  const auto insights =
      bench_suite_insights(registry->model_config().insight_dim);
  constexpr int kWidth = 4;

  RecommendService service{registry, ServiceConfig{}};
  EXPECT_EQ(service.model_version(), 1u);

  auto future = service.submit(insights[0], kWidth);
  // Wait until the request is admitted — from that point its version pin
  // is fixed, whatever publishes next.
  while (service.inflight() == 0 && service.finished() == 0) {
    std::this_thread::yield();
  }
  registry->publish(version_state(2), "v2");

  const Response pinned = future.get();
  ASSERT_EQ(pinned.status, Status::kOk);
  EXPECT_EQ(pinned.model_version, 1u);
  const auto v1_model = version_model(1);
  expect_bitwise(pinned, align::beam_search(v1_model, insights[0], kWidth),
                 "pinned v1 response");

  // v2 was already published when this request is admitted, so the
  // batcher must have adopted it at a batch boundary.
  const Response swapped = service.recommend(insights[1], kWidth);
  ASSERT_EQ(swapped.status, Status::kOk);
  EXPECT_EQ(swapped.model_version, 2u);
  const auto v2_model = version_model(2);
  expect_bitwise(swapped, align::beam_search(v2_model, insights[1], kWidth),
                 "post-swap v2 response");

  EXPECT_EQ(service.model_version(), 2u);
  EXPECT_EQ(service.swaps(), 1u);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.model_version, 2u);
  EXPECT_EQ(counters.swaps, 1u);
  EXPECT_GE(counters.max_swap_ms, counters.mean_swap_ms);
}

TEST(HotswapTest, MixedVersionTicksDecodeEachRequestOnItsPinnedModel) {
  // A request admitted *mid-flight* after a swap shares batch ticks with
  // the old-version cohort: the gather must split the tick into
  // same-version forwards (DecodeSession::step_batch refuses lanes bound
  // to different models in one call) and both requests must finish
  // bitwise on their own pins.
  auto registry = std::make_shared<ModelRegistry>(align::ModelConfig{});
  registry->publish(version_state(1), "v1");
  const auto insights =
      bench_suite_insights(registry->model_config().insight_dim);
  constexpr int kWidth = 4;

  RecommendService service{registry, ServiceConfig{}};
  auto first = service.submit(insights[3], kWidth);
  while (service.inflight() == 0 && service.finished() == 0) {
    std::this_thread::yield();
  }
  // v2 lands while the first request decodes (one tick per beam position,
  // so it stays in flight for dozens of ticks); the second request admits
  // on v2 at the next batch boundary and decodes alongside it.
  registry->publish(version_state(2), "v2");
  auto second = service.submit(insights[4], kWidth);

  const Response r1 = first.get();
  const Response r2 = second.get();
  ASSERT_EQ(r1.status, Status::kOk);
  ASSERT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(r1.model_version, 1u);
  EXPECT_EQ(r2.model_version, 2u);
  const auto v1_model = version_model(1);
  const auto v2_model = version_model(2);
  expect_bitwise(r1, align::beam_search(v1_model, insights[3], kWidth),
                 "v1 request sharing ticks with a v2 admission");
  expect_bitwise(r2, align::beam_search(v2_model, insights[4], kWidth),
                 "v2 request admitted mid-flight");
  EXPECT_EQ(service.swaps(), 1u);
}

TEST(HotswapTest, QueuedRequestsAdmitOnTheFreshVersion) {
  // Requests still *queued* (not yet admitted) when a publish lands are
  // not pinned: they admit on whatever is current at their batch boundary.
  auto registry = std::make_shared<ModelRegistry>(align::ModelConfig{});
  registry->publish(version_state(1), "v1");
  const auto insights =
      bench_suite_insights(registry->model_config().insight_dim);

  RecommendService service{registry, ServiceConfig{}};
  service.pause();  // freeze the batcher: submissions stay queued
  auto future = service.submit(insights[2], 3);
  registry->publish(version_state(2), "v2");
  service.resume();

  const Response response = future.get();
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.model_version, 2u);
  const auto v2_model = version_model(2);
  expect_bitwise(response, align::beam_search(v2_model, insights[2], 3),
                 "queued request");
}

TEST(HotswapTest, SwapUnderLoadStress) {
  // Submitter threads race a publisher; every kOk response must be
  // bitwise identical to the beam-search oracle of the version it
  // reports. INSIGHTALIGN_HOTSWAP_CHURN scales both traffic and publish
  // count (the tsan-hotswap CI leg sets it well above 1).
  const int churn = churn_multiplier();
  const int kThreads = 4;
  const int per_thread = 12 * churn;
  const int publishes = 5 * churn;
  constexpr int kWidth = 3;

  auto registry = std::make_shared<ModelRegistry>(align::ModelConfig{});
  registry->publish(version_state(1), "seed");
  const auto insights =
      bench_suite_insights(registry->model_config().insight_dim);

  ServiceConfig config;
  config.max_inflight = 8;
  config.queue_capacity = 4096;  // cannot fill: every submission completes
  RecommendService service{registry, config};

  std::vector<std::vector<std::pair<std::size_t, std::future<Response>>>>
      futures(static_cast<std::size_t>(kThreads));
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        const std::size_t insight_index = static_cast<std::size_t>(
            (t * per_thread + i) % kBenchSuiteDesigns);
        futures[static_cast<std::size_t>(t)].emplace_back(
            insight_index,
            service.submit(insights[insight_index], kWidth));
      }
    });
  }
  std::thread publisher{[&] {
    for (int p = 0; p < publishes; ++p) {
      std::this_thread::sleep_for(2ms);
      const std::uint64_t v = registry->current_version() + 1;
      registry->publish(version_state(v), "churn");
    }
  }};
  for (auto& thread : submitters) thread.join();
  publisher.join();

  // Lazy oracle cache: beam_search per (version, insight) actually served.
  std::map<std::pair<std::uint64_t, std::size_t>,
           std::vector<align::BeamCandidate>> oracles;
  int ok = 0;
  std::uint64_t min_version = UINT64_MAX;
  std::uint64_t max_version = 0;
  for (auto& per_thread_futures : futures) {
    for (auto& [insight_index, future] : per_thread_futures) {
      Response response = future.get();
      ASSERT_EQ(response.status, Status::kOk);
      ASSERT_GE(response.model_version, 1u);
      min_version = std::min(min_version, response.model_version);
      max_version = std::max(max_version, response.model_version);
      const auto key = std::make_pair(response.model_version, insight_index);
      auto it = oracles.find(key);
      if (it == oracles.end()) {
        const auto model = version_model(response.model_version);
        it = oracles
                 .emplace(key, align::beam_search(
                                   model, insights[insight_index], kWidth))
                 .first;
      }
      expect_bitwise(response, it->second, "stress response");
      ++ok;
    }
  }
  EXPECT_EQ(ok, kThreads * per_thread);
  // Versions never move backwards past what the publisher produced.
  EXPECT_GE(min_version, 1u);
  EXPECT_LE(max_version, static_cast<std::uint64_t>(publishes) + 1u);

  // After the publisher finishes, the next admission must decode on the
  // final version: the batcher checks the registry at every boundary.
  const Response fresh = service.recommend(insights[0], kWidth);
  ASSERT_EQ(fresh.status, Status::kOk);
  EXPECT_EQ(fresh.model_version, static_cast<std::uint64_t>(publishes) + 1u);

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.model_version,
            static_cast<std::uint64_t>(publishes) + 1u);
  EXPECT_GE(counters.swaps, 1u);
  EXPECT_LE(counters.swaps, static_cast<std::uint64_t>(publishes));
  EXPECT_EQ(counters.completed,
            static_cast<std::uint64_t>(kThreads * per_thread) + 1u);
  EXPECT_EQ(counters.rejected, 0u);

  // A/B accounting saw every served version.
  const auto j = registry->to_json();
  EXPECT_GE(j.as_object().at("ab").as_array().size(), 1u);
}

}  // namespace
}  // namespace vpr::serve

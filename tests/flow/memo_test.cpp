// The claim-once memo under the flow caches (flow/memo.h): one compute
// per key however many callers race for it, a failed compute leaves the
// key claimable, LRU eviction keeps held values alive, and a compute of
// one key never blocks a hit on another.

#include "flow/memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/trace.h"

namespace vpr::flow {
namespace {

using IntMemo = detail::Memo<int, std::string>;

TEST(FlowMemo, ConcurrentCallersComputeOnceAndShareTheValue) {
  constexpr int kThreads = 8;
  IntMemo memo;
  std::atomic<int> computes{0};
  std::atomic<int> arrived{0};
  std::vector<std::shared_ptr<const std::string>> got(kThreads);
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        got[static_cast<std::size_t>(t)] = memo.get(7, "one_key", [&] {
          computes.fetch_add(1);
          // Long enough that the other callers find the key claimed.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return std::make_shared<const std::string>("seven");
        });
      });
    }
    for (auto& th : threads) th.join();
  }
  recorder.set_enabled(false);
  EXPECT_EQ(computes.load(), 1);
  for (const auto& value : got) {
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value.get(), got.front().get());
    EXPECT_EQ(*value, "seven");
  }
  // How many callers block depends on the scheduler; each one that does
  // records one wait span naming the stage.
  int waits = 0;
  for (const obs::TraceEvent& e : recorder.snapshot()) {
    if (e.name != "flow.memo.wait") continue;
    ++waits;
    ASSERT_EQ(e.args.size(), 1u);
    EXPECT_EQ(e.args[0].key, "stage");
    EXPECT_EQ(std::get<std::string>(e.args[0].value), "one_key");
  }
  recorder.clear();
  EXPECT_LT(waits, kThreads);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FlowMemo, ThrowReachesItsCallerAndTheNextCallerComputes) {
  IntMemo memo;
  int computes = 0;
  EXPECT_THROW((void)memo.get(1, "test",
                              [&]() -> std::shared_ptr<const std::string> {
                                ++computes;
                                throw std::runtime_error("compute failed");
                              }),
               std::runtime_error);
  const auto value = memo.get(1, "test", [&] {
    ++computes;
    return std::make_shared<const std::string>("one");
  });
  EXPECT_EQ(*value, "one");
  EXPECT_EQ(computes, 2);
  // Published now: a further caller reads it without computing.
  EXPECT_EQ(memo.get(1, "test",
                     [&] {
                       ++computes;
                       return std::make_shared<const std::string>("other");
                     })
                .get(),
            value.get());
  EXPECT_EQ(computes, 2);
}

TEST(FlowMemo, EvictsTheLeastRecentlyUsedKeyAndKeepsHeldValuesAlive) {
  IntMemo memo{2};
  int computes = 0;
  const auto get = [&](int key) {
    return memo.get(key, "test", [&] {
      ++computes;
      return std::make_shared<const std::string>(std::to_string(key));
    });
  };
  (void)get(1);
  const std::shared_ptr<const std::string> two = get(2);
  (void)get(1);  // hit: 2 is now the least recently used key
  EXPECT_EQ(computes, 2);
  (void)get(3);  // evicts 2
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(*two, "2");  // the held value outlives its eviction
  (void)get(1);
  EXPECT_EQ(computes, 3);
  const auto again = get(2);  // evicted: computed afresh
  EXPECT_EQ(computes, 4);
  EXPECT_NE(again.get(), two.get());
  EXPECT_EQ(*again, *two);
}

TEST(FlowMemo, ComputeOfOneKeyNeverBlocksAHitOnAnother) {
  IntMemo memo;
  (void)memo.get(1, "test",
                 [] { return std::make_shared<const std::string>("one"); });
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread slow{[&] {
    (void)memo.get(2, "test", [&] {
      entered.set_value();
      released.wait();
      return std::make_shared<const std::string>("two");
    });
  }};
  entered.get_future().wait();
  // Key 2 is mid-compute; a hit on key 1 and a compute of key 3 finish
  // without it.
  auto others = std::async(std::launch::async, [&] {
    const auto one = memo.get(1, "test", [] {
      return std::make_shared<const std::string>("recomputed");
    });
    const auto three = memo.get(3, "test", [] {
      return std::make_shared<const std::string>("three");
    });
    return *one + "," + *three;
  });
  const bool finished = others.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  release.set_value();
  slow.join();
  ASSERT_TRUE(finished) << "blocked behind another key's compute";
  EXPECT_EQ(others.get(), "one,three");
}

}  // namespace
}  // namespace vpr::flow

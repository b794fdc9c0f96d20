#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vpr::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ZeroIterationsIsNoOp) {
  ThreadPool pool{2};
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller) {
  ThreadPool pool{1};
  // Capped to one participant: the calling thread does everything, in order.
  std::vector<int> order;
  pool.parallel_for(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ResultsIndependentOfParticipantCount) {
  ThreadPool pool{8};
  constexpr std::size_t kN = 200;
  const auto run = [&](unsigned max_workers) {
    std::vector<double> out(kN, 0.0);
    pool.parallel_for(
        kN, [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
        max_workers);
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ThreadPool, MoreWorkersThanWork) {
  ThreadPool pool{16};
  std::vector<int> hits(3, 0);
  pool.parallel_for(3, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ThreadPool, PropagatesFirstBodyException) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(256,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionCancelsRemainingWork) {
  ThreadPool pool{4};
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(100000, [&](std::size_t) {
      ++executed;
      throw std::runtime_error("boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // Each participant stops at its first failure; far fewer than n bodies run.
  EXPECT_LT(executed.load(), 100000);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(64, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool{4};
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    // Every nested call publishes its own job; its caller runs it and
    // waits only for the workers that joined it.
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, NestedParallelForUsesIdleWorkers) {
  // Two outer bodies occupy two of the five participants; the three idle
  // workers must join the nested jobs. Each nested job's bodies block at a
  // rendezvous until the job has started bodies on two threads, which a
  // nested call run inline on its caller never does.
  ThreadPool pool{4};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<int> timeouts{0};
  pool.parallel_for(2, [&](std::size_t) {
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::thread::id> threads;
    pool.parallel_for(4, [&](std::size_t) {
      std::unique_lock lk{mu};
      threads.insert(std::this_thread::get_id());
      cv.notify_all();
      if (!cv.wait_until(lk, deadline, [&] { return threads.size() >= 2; })) {
        ++timeouts;
      }
    });
  });
  EXPECT_EQ(timeouts.load(), 0);
}

TEST(ThreadPool, ConcurrentCallersShareWorkers) {
  ThreadPool pool{4};
  constexpr std::size_t kN = 5000;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  const auto caller = [&](std::vector<std::atomic<int>>& hits) {
    for (int r = 0; r < kRounds; ++r) {
      pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
    }
  };
  std::thread a{caller, std::ref(hits_a)};
  std::thread b{caller, std::ref(hits_b)};
  a.join();
  b.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), kRounds) << i;
    EXPECT_EQ(hits_b[i].load(), kRounds) << i;
  }
}

TEST(ThreadPool, NestedExceptionReachesItsOwnCaller) {
  ThreadPool pool{4};
  constexpr std::size_t kOuter = 4;
  std::vector<std::string> caught(kOuter);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        if (i == 37) throw std::runtime_error(std::to_string(o));
      });
    } catch (const std::runtime_error& e) {
      caught[o] = e.what();
    }
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(caught[o], std::to_string(o));
  }
}

TEST(ThreadPool, DefaultSizeFollowsCpuAffinity) {
  // Pin this thread to one CPU it may already use; a default-sized pool
  // then has the caller as its only participant and starts no thread.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  unsigned workers = 0;
  {
    const ThreadPool pool{};
    workers = pool.workers();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(workers, 0u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  std::vector<int> hits(10, 0);
  ThreadPool::shared().parallel_for(10, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, UnevenBodiesStillCoverEverything) {
  ThreadPool pool{4};
  constexpr std::size_t kN = 400;
  std::vector<int> hits(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) {
    // Skewed cost: the tail indices spin, exercising the stealing path.
    volatile int sink = 0;
    const int spin = i > kN - 16 ? 20000 : 1;
    for (int s = 0; s < spin; ++s) sink = sink + s;
    ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

}  // namespace
}  // namespace vpr::util

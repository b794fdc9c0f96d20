#pragma once
// Persistent work-stealing thread pool, the one parallel-for of the code
// base. Spawning and joining fresh threads per call would cost the hot
// evaluation paths — beam-search validation, online tuning, FlowEval
// batches — on every call; ThreadPool starts its workers once and parks
// them on a condition variable between jobs.
//
// parallel_for splits [0, n) into one contiguous range per participant;
// a participant that drains its own range steals half of the largest
// remaining range (chunked work stealing), so uneven bodies (flow runs on
// designs of different sizes) still balance.
//
// Guarantees:
//  - every index is executed exactly once (unless a body throws);
//  - an exception in the body cancels the remaining indices and the first
//    exception is rethrown on the calling thread;
//  - the calling thread participates in the work, so a pool with zero
//    workers — or a pool busy with another job — still completes, and
//    nested parallel_for calls cannot deadlock (they run inline).

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vpr::util {

class ThreadPool {
 public:
  /// Starts `workers` background threads (0 => hardware_concurrency - 1;
  /// the calling thread is the remaining participant).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Background worker count (participants = workers() + calling thread).
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Runs body(i) for i in [0, n). `max_workers` caps the total number of
  /// participants including the caller (0 => no cap). Results must go to
  /// pre-sized slots; the first body exception is rethrown on the caller.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    unsigned max_workers = 0);

  /// Process-wide pool shared by FlowEval, the dataset builder and the
  /// pipeline hot paths.
  static ThreadPool& shared();

 private:
  struct Job;
  void worker_loop();
  static void participate(Job& job, std::size_t slot);
  static bool take_batch(Job& job, std::size_t slot, std::size_t& begin,
                         std::size_t& end);

  std::vector<std::thread> threads_;
  std::mutex mutex_;               // guards job_/generation_/stop_ + Job claims
  std::condition_variable wake_;   // workers park here between jobs
  std::condition_variable done_;   // caller waits for claimed workers to drain
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::mutex run_mutex_;  // one parallel_for at a time; others run inline
};

}  // namespace vpr::util

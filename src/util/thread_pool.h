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
// Several parallel_for calls may be in flight at once: nested calls from
// inside a body (a placement inside a FlowEval batch inside an archive
// build) and calls from unrelated threads each publish their own job. An
// idle worker claims a free participant slot in the newest job that has
// one, so the innermost work in flight gets the idle workers first.
//
// Guarantees:
//  - every index is executed exactly once (unless a body throws);
//  - an exception in the body cancels the remaining indices of that call
//    and the first exception is rethrown on that call's caller (a nested
//    call's exception reaches the body that made the nested call);
//  - the calling thread always runs its own job, and then waits only for
//    the workers that joined that job. A worker in a job runs only that
//    job's indices, so a pool with zero workers or with every worker busy
//    still completes, and nested parallel_for calls cannot deadlock.

#include <cstddef>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vpr::util {

class ThreadPool {
 public:
  /// Starts `workers` background threads (0 => one fewer than the CPUs
  /// this thread may run on; the calling thread is the remaining
  /// participant).
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
  Job* newest_open_job() const;
  static void participate(Job& job, std::size_t slot);
  static bool take_batch(Job& job, std::size_t slot, std::size_t& begin,
                         std::size_t& end);

  std::mutex mutex_;              // guards jobs_, stop_ + every Job's claims
  std::condition_variable wake_;  // workers park here between jobs
  std::vector<Job*> jobs_;        // jobs in flight, oldest first
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace vpr::util

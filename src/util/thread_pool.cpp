#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <exception>

namespace vpr::util {

namespace {

/// CPUs the calling thread may run on. hardware_concurrency() counts every
/// CPU of the host, so a process confined by its affinity mask (taskset, a
/// cpuset-limited container) would otherwise start a worker per host CPU.
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

struct ThreadPool::Job {
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  const std::function<void(std::size_t)>* body = nullptr;
  std::vector<Range> ranges;  // one per participant slot
  std::mutex range_mutex;     // guards ranges + failed + error
  bool failed = false;
  std::exception_ptr error;
  std::size_t slots = 0;    // participant capacity; guarded by pool mutex_
  std::size_t claimed = 0;  // slots handed out; guarded by pool mutex_
  std::size_t active = 0;   // workers running; guarded by pool mutex_
  std::condition_variable drained;  // active reached 0; under pool mutex_
};

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = usable_cpus() - 1;  // the caller is the last participant
  }
  threads_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk{mutex_};
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::take_batch(Job& job, std::size_t slot, std::size_t& begin,
                            std::size_t& end) {
  std::lock_guard lk{job.range_mutex};
  if (job.failed) return false;
  Job::Range& own = job.ranges[slot];
  if (own.begin >= own.end) {
    // Steal half of the largest remaining range.
    std::size_t victim = job.ranges.size();
    std::size_t best = 0;
    for (std::size_t r = 0; r < job.ranges.size(); ++r) {
      const std::size_t len = job.ranges[r].end - job.ranges[r].begin;
      if (len > best) {
        best = len;
        victim = r;
      }
    }
    if (best == 0) return false;
    Job::Range& v = job.ranges[victim];
    const std::size_t half = (best + 1) / 2;
    own.begin = v.end - half;
    own.end = v.end;
    v.end = own.begin;
  }
  // Grab a quarter of the local range (>= 1) so most of it stays stealable.
  const std::size_t remaining = own.end - own.begin;
  const std::size_t batch = std::max<std::size_t>(1, remaining / 4);
  begin = own.begin;
  end = own.begin + batch;
  own.begin = end;
  return true;
}

void ThreadPool::participate(Job& job, std::size_t slot) {
  std::size_t begin = 0;
  std::size_t end = 0;
  while (take_batch(job, slot, begin, end)) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*job.body)(i);
      } catch (...) {
        std::lock_guard lk{job.range_mutex};
        if (!job.error) job.error = std::current_exception();
        job.failed = true;
        return;
      }
    }
  }
}

ThreadPool::Job* ThreadPool::newest_open_job() const {
  for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
    if ((*it)->claimed < (*it)->slots) return *it;
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  std::unique_lock lk{mutex_};
  for (;;) {
    Job* job = nullptr;
    wake_.wait(lk, [&] {
      return stop_ || (job = newest_open_job()) != nullptr;
    });
    if (stop_) return;
    const std::size_t slot = job->claimed++;
    ++job->active;
    lk.unlock();
    participate(*job, slot);
    lk.lock();
    // Notified under the lock: the caller cannot see active == 0, return
    // and destroy the job before this thread lets go of mutex_.
    if (--job->active == 0) job->drained.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              unsigned max_workers) {
  if (n == 0) return;
  std::size_t participants = threads_.size() + 1;
  if (max_workers != 0) {
    participants = std::min<std::size_t>(participants, max_workers);
  }
  participants = std::min(participants, n);
  if (participants <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  Job job;
  job.body = &body;
  job.slots = participants;
  job.claimed = 1;  // slot 0 belongs to the calling thread
  job.ranges.resize(participants);
  const std::size_t chunk = n / participants;
  const std::size_t extra = n % participants;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < participants; ++s) {
    job.ranges[s].begin = cursor;
    cursor += chunk + (s < extra ? 1 : 0);
    job.ranges[s].end = cursor;
  }

  {
    std::lock_guard lk{mutex_};
    jobs_.push_back(&job);
  }
  for (std::size_t s = 1; s < participants; ++s) wake_.notify_one();

  participate(job, 0);

  std::unique_lock lk{mutex_};
  // No further claims; drain the workers that joined.
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  job.drained.wait(lk, [&] { return job.active == 0; });
  lk.unlock();

  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace vpr::util

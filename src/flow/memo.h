#pragma once
// The claim-once memo behind every flow cache: FlowEval's QoR table, its
// warm Flows and their probing runs, and each Flow's placements and their
// routes.
//
// A MemoCell holds one value, computed at most once. The first caller
// computes it under the cell's own mutex; a concurrent caller blocks on
// that mutex (a `flow.memo.wait` span, arg `stage`) and then reads the
// value. Once the value is published, a reader takes no lock: one acquire
// load of the ready flag. A compute that throws publishes nothing, so the
// next caller computes again.
//
// A Memo maps keys to cells. Its own mutex is held only to find or insert
// a cell, never while a value is computed, so a compute of one key never
// blocks a hit on another. Beyond `capacity` keys the least recently used
// one is evicted. Values are handed out as shared_ptrs, so an evicted
// value stays valid for whoever still holds it.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"

namespace vpr::flow::detail {

template <class V>
class MemoCell {
 public:
  /// The value, computed by `compute()` (returning a shared_ptr to it) if
  /// no caller has published one yet. `stage` names the wait in traces.
  template <class F>
  std::shared_ptr<const V> get(const char* stage, F&& compute) {
    if (!ready_.load(std::memory_order_acquire)) {
      std::unique_lock lk{mu_, std::try_to_lock};
      if (!lk.owns_lock()) {
        VPR_TRACE_SPAN("flow.memo.wait", "flow",
                       obs::TraceArgs{{"stage", stage}});
        lk.lock();
      }
      if (!ready_.load(std::memory_order_relaxed)) {
        value_ = std::forward<F>(compute)();
        ready_.store(true, std::memory_order_release);
      }
    }
    return value_;
  }

 private:
  std::mutex mu_;  // held by the claiming caller while it computes
  std::atomic<bool> ready_{false};
  std::shared_ptr<const V> value_;  // final once ready_ is set
};

/// Hash for tables of a few entries whose keys have no natural hash: one
/// bucket, so a lookup is a linear scan with ==.
struct OneBucket {
  template <class K>
  std::size_t operator()(const K& /*key*/) const noexcept {
    return 0;
  }
};

template <class K, class V, class Hash = std::hash<K>>
class Memo {
 public:
  explicit Memo(std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : capacity_(capacity) {}

  /// MemoCell::get on the cell of `key`, inserted (evicting the least
  /// recently used key beyond capacity) if absent.
  template <class F>
  std::shared_ptr<const V> get(const K& key, const char* stage,
                               F&& compute) {
    return cell(key)->get(stage, std::forward<F>(compute));
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lk{mu_};
    return slots_.size();
  }

  void clear() {
    std::lock_guard lk{mu_};
    slots_.clear();
  }

 private:
  struct Slot {
    std::shared_ptr<MemoCell<V>> cell;
    std::uint64_t tick = 0;  // last use
  };

  std::shared_ptr<MemoCell<V>> cell(const K& key) {
    std::lock_guard lk{mu_};
    const auto [it, inserted] = slots_.try_emplace(key);
    it->second.tick = ++tick_;
    if (inserted) {
      it->second.cell = std::make_shared<MemoCell<V>>();
      if (slots_.size() > capacity_) {
        slots_.erase(std::min_element(
            slots_.begin(), slots_.end(), [](const auto& a, const auto& b) {
              return a.second.tick < b.second.tick;
            }));
      }
    }
    return it->second.cell;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;  // guards slots_ and tick_
  std::unordered_map<K, Slot, Hash> slots_;
  std::uint64_t tick_ = 0;
};

}  // namespace vpr::flow::detail

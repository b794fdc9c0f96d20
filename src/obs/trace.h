#pragma once
// Low-overhead span tracing with a Chrome/Perfetto trace_event exporter.
//
// TraceRecorder is the process-wide recorder behind `--trace-out=FILE` on
// every CLI subcommand: the flow engines, the trainer, the decoder and the
// serving layer drop spans / instants / async request tracks into it, and
// the exporter writes `trace_event` JSON that loads directly in
// ui.perfetto.dev (or chrome://tracing).
//
// Hot-path contract: tracing compiled in but *disabled* costs exactly one
// relaxed atomic load per span site (perfbench's obs.trace_overhead_frac
// measures the enabled cost end to end). When enabled, each thread
// appends events into its own chunked buffer without taking any lock: the
// owner thread constructs the event in place and then publishes it with
// a release store of the buffer's event count; readers (snapshot /
// export) acquire-load the count and only walk the published prefix.
// Buffers are registered once per thread (the only mutex, off the
// hot path) and live until process exit, so a cached thread_local pointer
// never dangles.
//
// clear() resets the published counts; it requires event-recording
// quiescence (no thread inside a span), which tests get by joining their
// worker threads first.
//
// Cross-process story: timestamps are steady-clock microseconds since this
// process's recorder epoch, so two processes' traces don't share a time
// base. The exporter therefore embeds a wall-clock anchor
// (otherData.epoch_unix_us = system_clock at recorder construction) and a
// process name; obs::trace_merge uses the anchors to shift every file onto
// the earliest process's timeline and re-assigns pids so one client
// request — correlated by the trace id carried in serve/wire.h frames —
// renders as a single end-to-end track in Perfetto. next_id() is salted
// with per-process entropy in its high 32 bits so ids originated by
// different processes never collide in a merged trace.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace vpr::obs {

/// One key/value annotation on an event ("args" in the trace JSON).
struct TraceArg {
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int>>>
  TraceArg(std::string k, Int v)
      : key(std::move(k)), value(static_cast<std::int64_t>(v)) {}
  TraceArg(std::string k, double v) : key(std::move(k)), value(v) {}
  TraceArg(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)) {}
  TraceArg(std::string k, const char* v)
      : key(std::move(k)), value(std::string(v)) {}

  std::string key;
  std::variant<std::int64_t, double, std::string> value;
};

using TraceArgs = std::vector<TraceArg>;

/// A recorded event, in trace_event terms. `phase` is the trace_event
/// `ph`: 'X' complete span, 'i' instant, 'b'/'n'/'e' async (nestable)
/// begin/instant/end correlated by `id` (0 == no id).
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;  // complete spans only
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  TraceArgs args;
};

class TraceRecorder {
 public:
  /// The process-wide recorder every span site appends to.
  static TraceRecorder& instance();

  /// Flip recording. Disabled (the default) makes every record call a
  /// single relaxed load; events recorded while enabled are kept until
  /// clear().
  void set_enabled(bool enabled) noexcept;
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the recorder epoch (process start), on the same
  /// steady clock the flow stage timers use.
  [[nodiscard]] static std::int64_t now_us();
  [[nodiscard]] static std::int64_t to_us(
      std::chrono::steady_clock::time_point t);

  /// Record a completed span with explicit timestamps (the RAII TraceSpan
  /// calls this; Flow::run uses it to share one clock read with
  /// StageTimes). No-ops when disabled.
  void complete(std::string name, std::string category, std::int64_t ts_us,
                std::int64_t dur_us, TraceArgs args = {});
  /// Zero-duration marker on the calling thread's track.
  void instant(std::string name, std::string category, TraceArgs args = {});
  /// Async (nestable) events: every event recorded with the same nonzero
  /// `id` and category renders as one connected track in Perfetto — the
  /// serving layer uses one id per request so admission -> batching ->
  /// decode -> finish line up even across threads.
  void async_begin(std::string name, std::string category, std::uint64_t id,
                   TraceArgs args = {});
  void async_instant(std::string name, std::string category, std::uint64_t id,
                     TraceArgs args = {});
  void async_end(std::string name, std::string category, std::uint64_t id,
                 TraceArgs args = {});

  /// Names the calling thread's track in the exported trace ("batcher",
  /// "worker-3", ...). Cheap; callable before enabling.
  void set_thread_name(std::string name);

  /// Names this process in the exported trace ("serve", "client-bench");
  /// shows up as Perfetto's process label and survives trace_merge.
  void set_process_name(std::string name);

  /// Wall-clock time (unix microseconds, system_clock) at recorder
  /// construction — the anchor trace_merge aligns cross-process files by.
  [[nodiscard]] std::int64_t epoch_unix_us() const noexcept {
    return epoch_unix_us_;
  }

  /// Every published event, across all threads. Safe to call while other
  /// threads record (they keep appending past the snapshot).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  [[nodiscard]] std::size_t event_count() const;

  /// Chrome trace_event JSON: {"traceEvents": [...], ...}. Loadable in
  /// ui.perfetto.dev as-is.
  void write_json(std::ostream& os) const;
  /// write_json to `path`; false when the file cannot be written.
  bool write_json_file(const std::string& path) const;

  /// Drops every published event (buffers stay registered). Requires that
  /// no thread is concurrently recording.
  void clear();

  /// Fresh nonzero correlation id for async_* events. High 32 bits are a
  /// per-process random salt, low 32 a counter — unique within the
  /// process and collision-free across processes in merged traces.
  [[nodiscard]] static std::uint64_t next_id();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  struct ThreadBuffer;
  TraceRecorder();
  ~TraceRecorder();

  ThreadBuffer& buffer_for_this_thread();
  void record(TraceEvent&& event);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t epoch_unix_us_ = 0;

  mutable std::mutex register_mutex_;  // buffer registration + name edits
  std::vector<ThreadBuffer*> buffers_;  // leaked at exit by design
  std::uint32_t next_tid_ = 1;
  std::string process_name_;  // guarded by register_mutex_

  friend class TraceSpan;
};

/// RAII span: records a complete event from construction to destruction on
/// the calling thread's track. When the recorder is disabled, construction
/// is one relaxed atomic load and destruction a predictable branch.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "flow")
      : name_(name), category_(category),
        start_us_(TraceRecorder::instance().enabled() ? TraceRecorder::now_us()
                                                      : kDisabled) {}
  TraceSpan(const char* name, const char* category, TraceArgs args)
      : TraceSpan(name, category) {
    if (start_us_ != kDisabled) args_ = std::move(args);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (start_us_ != kDisabled) close();
  }

  /// Attach a key/value to the span (dropped when disabled).
  template <typename V>
  void arg(std::string key, V&& value) {
    if (start_us_ != kDisabled) {
      args_.emplace_back(std::move(key), std::forward<V>(value));
    }
  }
  /// True when this span is actually recording.
  [[nodiscard]] bool recording() const noexcept {
    return start_us_ != kDisabled;
  }

 private:
  static constexpr std::int64_t kDisabled = -1;
  void close();

  const char* name_;
  const char* category_;
  std::int64_t start_us_;
  TraceArgs args_;
};

namespace detail {
#define VPR_TRACE_CONCAT2(a, b) a##b
#define VPR_TRACE_CONCAT(a, b) VPR_TRACE_CONCAT2(a, b)
}  // namespace detail

/// Scoped span covering the rest of the enclosing block:
///   VPR_TRACE_SPAN("flow.route");
///   VPR_TRACE_SPAN("serve.tick", "serve", obs::TraceArgs{{"lanes", n}});
/// Costs one relaxed atomic load when tracing is disabled.
#define VPR_TRACE_SPAN(...)                                       \
  ::vpr::obs::TraceSpan VPR_TRACE_CONCAT(vpr_trace_span_, __LINE__) { \
    __VA_ARGS__                                                   \
  }

}  // namespace vpr::obs

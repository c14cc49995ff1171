#pragma once
/// \file trace.hpp
/// \brief RAII tracing spans with chrome://tracing export.
///
/// The paper's whole argument is a per-stage cost breakdown (CLS 2b(c-1)N^3,
/// BSOFI 7b^2N^3, WRP 3(bL-b^2)N^3, Sec. II-C); this subsystem makes those
/// stages first-class observable.  A Span records {name, start, duration,
/// thread} into a lock-free per-thread event buffer (reused by the next
/// thread once its thread exits); the global registry can
/// export every recorded event as chrome://tracing JSON (open in
/// chrome://tracing or https://ui.perfetto.dev) or aggregate them into a
/// per-span-name summary (count / total / min / max / p50).
///
/// Tracing is off by default and enabled at runtime by the FSI_TRACE=1
/// environment variable or obs::set_enabled(true) (benches expose a --trace
/// flag).  When disabled a Span costs one relaxed atomic load and a branch —
/// cheap enough to leave spans compiled into release hot paths.
///
/// OpenMP-awareness: each event records both a stable per-thread id (the
/// first-record order of the recording thread, used as the chrome "tid") and
/// the omp_get_thread_num() at span close, so imbalance across an
/// `omp parallel for` is visible lane-by-lane in the trace viewer.
///
/// Layering: fsi::obs sits below fsi::util (utilities delegate their
/// counters here) and depends only on the standard library.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fsi::obs {

namespace flight {
bool enabled() noexcept;  // flight.hpp; forward-declared for Span's gate
}  // namespace flight

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True when span recording is on (FSI_TRACE=1 at process start, or
/// set_enabled(true) since).
inline bool enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Turn span recording on or off at runtime (e.g. from a --trace CLI flag).
void set_enabled(bool on) noexcept;

/// Drop all recorded events (counters are untouched; see metrics.hpp).
void clear() noexcept;

/// Number of events discarded because a thread's ring buffer was full.
std::uint64_t dropped_events() noexcept;

/// Event buffers allocated so far.  A thread takes a buffer at its first
/// recorded span and gives it back at exit; the next new thread appends to
/// it (events are kept for export), so this stays bounded by the peak
/// number of live recording threads.
std::size_t thread_buffer_count() noexcept;

/// Trace timestamp: nanoseconds since the process epoch (steady clock).
/// Public so intervals that cross threads — e.g. the serve queue wait,
/// stamped on the connection thread and closed on the batcher — can be
/// recorded with record_interval().
std::int64_t now_ns() noexcept;

/// Record a completed interval [t0_ns, t1_ns] under \p name into the
/// calling thread's buffer, if tracing is enabled.  Same lifetime contract
/// as Span: \p name must outlive the trace.  The three-argument form tags
/// the event with the process-wide active trace id (see set_active_trace);
/// the four-argument form tags it with an explicit correlation id — the
/// serve plane uses it to stamp each request's wire trace_id onto its
/// spans, so a client-side and a server-side trace can be stitched into
/// one chrome://tracing timeline (events carry args.trace_id).
void record_interval(const char* name, std::int64_t t0_ns,
                     std::int64_t t1_ns) noexcept;
void record_interval(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
                     std::uint64_t trace_id) noexcept;

/// Process-wide correlation id applied to every span recorded while it is
/// nonzero.  The serve batcher sets it to the carrying request's trace_id
/// for the duration of an engine run, so the per-node executor spans of
/// that batch (fsi.cls / fsi.bsofi / fsi.wrap, recorded on pool threads)
/// are tagged without threading trace context through the task graph.
/// Single-writer by design (one batcher thread); readers are racy-relaxed.
void set_active_trace(std::uint64_t trace_id) noexcept;
std::uint64_t active_trace() noexcept;

/// RAII span: measures the enclosing scope and records it on destruction.
/// \p name must be a string literal (or otherwise outlive the trace);
/// events store the pointer, not a copy.  A span is live when either the
/// trace buffer (FSI_TRACE) or the always-on flight recorder wants it;
/// record_interval routes to whichever are enabled at close.
class Span {
 public:
  explicit Span(const char* name) noexcept
      : name_(name), active_(enabled() || flight::enabled()) {
    if (active_) start_ns_ = now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (active_) record_interval(name_, start_ns_, now_ns());
  }

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  bool active_;
};

/// Aggregated statistics for one span name across all threads.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double p50_s = 0.0;
};

/// Per-span-name aggregation of everything recorded so far, sorted by
/// descending total time.
std::vector<SpanStats> summary();

/// Total recorded seconds for one span name (0 if never recorded) — the
/// report layer uses this to pull per-stage wall times out of the trace.
double total_seconds(const std::string& name);

/// The summary() rendered as a console table.
std::string summary_str();

/// One completed span, as recorded and as exported.
struct TraceEvent {
  const char* name;        ///< span name (not owned)
  std::int64_t t0_ns;      ///< start on the now_ns() clock
  std::int64_t dur_ns;
  std::uint64_t trace_id;  ///< correlation id (0 = untagged)
  std::int32_t tid;        ///< recording thread's id, in first-record order
  std::int32_t omp_tid;    ///< omp_get_thread_num() at span close
};

/// \p events as a chrome://tracing JSON document ({"traceEvents": [...]},
/// "X" complete events, microsecond timestamps, process id \p pid).
/// Tagged events carry args.trace_id.  fsi_postmortem renders crash-dump
/// rings through this too, so both timelines have one shape.
std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              std::int64_t pid);

/// Every recorded event as chrome://tracing JSON (pid 0).
std::string chrome_trace_json();

/// Write chrome_trace_json() to \p path; returns false on I/O error.
bool write_chrome_trace(const std::string& path);

/// If tracing is enabled, write the trace: to $FSI_TRACE_FILE when set,
/// else "<basename>.trace.json", where a bare basename (no '/') is placed
/// under obs::artifact_dir() so every trace artifact lands in one place.
/// A basename containing a '/' is honoured verbatim.  Returns the path
/// written, or "" when tracing is disabled or the write failed.
/// Benches and examples call this once before exiting.
std::string write_trace_if_enabled(const std::string& basename);

}  // namespace fsi::obs

/// Convenience macro for a scope-long span with a unique variable name.
#define FSI_OBS_CONCAT_(a, b) a##b
#define FSI_OBS_CONCAT(a, b) FSI_OBS_CONCAT_(a, b)
#define FSI_OBS_SPAN(name) \
  ::fsi::obs::Span FSI_OBS_CONCAT(fsi_obs_span_, __LINE__)(name)

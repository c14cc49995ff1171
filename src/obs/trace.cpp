#include "fsi/obs/trace.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "fsi/obs/env.hpp"
#include "fsi/obs/flight.hpp"
#include "fsi/obs/json.hpp"
#include "fsi/obs/telemetry.hpp"

namespace fsi::obs {

namespace detail {
// env_flag honours every falsy spelling (FSI_TRACE=0/false/off/no/""), not
// just "0" — any other set value enables tracing.
std::atomic<bool> g_trace_enabled{env_flag("FSI_TRACE", false)};
}  // namespace detail

namespace {

/// The process-wide correlation id (see set_active_trace in the header).
std::atomic<std::uint64_t> g_active_trace{0};

/// Bounded event buffer, held by one live thread at a time.  The holding
/// thread appends; exporters read entries [0, size) after an acquire load
/// of size, so no entry is ever written and read concurrently.  On
/// overflow new events are dropped (and counted) rather than wrapping,
/// which would let the writer race readers.
struct ThreadBuffer {
  static constexpr std::size_t kCapacity = 1 << 16;

  std::unique_ptr<TraceEvent[]> events{new TraceEvent[kCapacity]};
  std::atomic<std::size_t> size{0};

  void push(const TraceEvent& e,
            std::atomic<std::uint64_t>& dropped) noexcept {
    const std::size_t n = size.load(std::memory_order_relaxed);
    if (n >= kCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[n] = e;
    size.store(n + 1, std::memory_order_release);
  }
};

/// Every buffer ever handed out, owned here, plus the ones whose thread
/// has exited.  An exiting thread returns its buffer (events kept for
/// export) and the next new recording thread appends to it, so the buffer
/// count is bounded by the peak number of live recording threads, not by
/// thread churn (one reader thread per serve connection).
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<ThreadBuffer*> free;
  int next_tid = 0;
};

Registry& registry() {
  // Leaked deliberately: a thread that exits during static destruction
  // (say, joined by another static's destructor) still returns its buffer.
  static Registry* r = new Registry();
  return *r;
}

std::atomic<std::uint64_t>& dropped_counter() {
  static std::atomic<std::uint64_t> d{0};
  return d;
}

/// The calling thread's buffer and id, taken from the registry at its
/// first recorded span and given back when the thread exits.
struct LocalSlot {
  ThreadBuffer* buf = nullptr;
  std::int32_t tid = 0;

  LocalSlot() = default;
  LocalSlot(const LocalSlot&) = delete;
  LocalSlot& operator=(const LocalSlot&) = delete;
  ~LocalSlot() {
    if (buf == nullptr) return;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.free.push_back(buf);
  }
};

LocalSlot& local_slot() {
  thread_local LocalSlot slot;
  if (slot.buf == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (r.free.empty()) {
      r.buffers.push_back(std::make_unique<ThreadBuffer>());
      slot.buf = r.buffers.back().get();
    } else {
      slot.buf = r.free.back();
      r.free.pop_back();
    }
    slot.tid = r.next_tid++;
  }
  return slot;
}

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Touch the epoch at static-init time so timestamps are process-relative.
const auto g_epoch_init = process_epoch();

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - process_epoch())
      .count();
}

void record_interval(const char* name, std::int64_t t0_ns,
                     std::int64_t t1_ns) noexcept {
  record_interval(name, t0_ns, t1_ns,
                  g_active_trace.load(std::memory_order_relaxed));
}

void record_interval(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
                     std::uint64_t trace_id) noexcept {
  // The flight recorder sees every span close, trace enabled or not — its
  // ring is what the crash handler dumps (flight.hpp).
  flight::record(name, t0_ns, t1_ns - t0_ns, trace_id, omp_get_thread_num());
  if (!enabled()) return;
  LocalSlot& slot = local_slot();
  slot.buf->push(
      {name, t0_ns, t1_ns - t0_ns, trace_id, slot.tid, omp_get_thread_num()},
      dropped_counter());
}

void set_active_trace(std::uint64_t trace_id) noexcept {
  g_active_trace.store(trace_id, std::memory_order_relaxed);
}

std::uint64_t active_trace() noexcept {
  return g_active_trace.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void clear() noexcept {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  // Only safe when the owning threads are not concurrently recording (same
  // contract as metrics::reset); sizes drop to zero, storage is reused.
  for (const auto& b : r.buffers) b->size.store(0, std::memory_order_relaxed);
  dropped_counter().store(0, std::memory_order_relaxed);
}

std::uint64_t dropped_events() noexcept {
  return dropped_counter().load(std::memory_order_relaxed);
}

std::size_t thread_buffer_count() noexcept {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.buffers.size();
}

namespace {

/// Copy out a consistent snapshot of every thread's recorded events.
std::vector<TraceEvent> snapshot_events() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<TraceEvent> out;
  for (const auto& b : r.buffers) {
    const std::size_t n = b->size.load(std::memory_order_acquire);
    out.insert(out.end(), b->events.get(), b->events.get() + n);
  }
  return out;
}

}  // namespace

std::vector<SpanStats> summary() {
  std::map<std::string, std::vector<double>> durations;
  for (const TraceEvent& e : snapshot_events())
    durations[e.name].push_back(static_cast<double>(e.dur_ns) * 1e-9);

  std::vector<SpanStats> out;
  out.reserve(durations.size());
  for (auto& [name, ds] : durations) {
    std::sort(ds.begin(), ds.end());
    SpanStats s;
    s.name = name;
    s.count = ds.size();
    for (double d : ds) s.total_s += d;
    s.min_s = ds.front();
    s.max_s = ds.back();
    s.p50_s = ds[ds.size() / 2];
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.total_s > b.total_s;
  });
  return out;
}

double total_seconds(const std::string& name) {
  double total = 0.0;
  for (const TraceEvent& e : snapshot_events())
    if (name == e.name) total += static_cast<double>(e.dur_ns) * 1e-9;
  return total;
}

std::string summary_str() {
  std::string out =
      "span                          count   total s     min s     p50 s     "
      "max s\n";
  char line[160];
  for (const SpanStats& s : summary()) {
    std::snprintf(line, sizeof line, "%-28s %6llu %9.4f %9.6f %9.6f %9.6f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_s, s.min_s, s.p50_s, s.max_s);
    out += line;
  }
  if (const std::uint64_t d = dropped_events()) {
    out += '(';
    out += std::to_string(d);
    out += " events dropped: buffer full)\n";
  }
  return out;
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              std::int64_t pid) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    out += json_string(e.name);
    // Complete ("X") events; chrome expects microsecond timestamps.  Tagged
    // events carry their correlation id so a stitched client+server serve
    // timeline can be filtered by args.trace_id in the viewer.
    std::snprintf(buf, sizeof buf,
                  ",\"cat\":\"fsi\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%lld,\"tid\":%d,\"args\":{\"omp_tid\":%d",
                  static_cast<double>(e.t0_ns) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3,
                  static_cast<long long>(pid), e.tid, e.omp_tid);
    out += buf;
    if (e.trace_id != 0) {
      std::snprintf(buf, sizeof buf, ",\"trace_id\":%llu",
                    static_cast<unsigned long long>(e.trace_id));
      out += buf;
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string chrome_trace_json() {
  return chrome_trace_json(snapshot_events(), 0);
}

bool write_chrome_trace(const std::string& path) {
  return write_text_file(path, chrome_trace_json());
}

std::string write_trace_if_enabled(const std::string& basename) {
  if (!enabled()) return "";
  const char* env = std::getenv("FSI_TRACE_FILE");
  // A bare basename (no '/') lands under artifact_dir(), next to the
  // BENCH_*.json telemetry; an explicit path is honoured verbatim.
  std::string path;
  if (env != nullptr && env[0] != '\0') {
    path = env;
  } else if (basename.find('/') == std::string::npos) {
    path = artifact_dir() + "/" + basename + ".trace.json";
  } else {
    path = basename + ".trace.json";
  }
  if (!write_chrome_trace(path)) {
    std::fprintf(stderr, "[fsi.obs] could not write trace to %s\n",
                 path.c_str());
    return "";
  }
  return path;
}

}  // namespace fsi::obs

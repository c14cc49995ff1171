#include "fsi/obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "fsi/obs/build.hpp"
#include "fsi/obs/env.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"

namespace fsi::obs::flight {
namespace {

std::atomic<bool> g_enabled{env_flag("FSI_FLIGHT", true)};

/// One ring record.  Every field is a relaxed atomic so the crash handler
/// (and snapshot()) read torn-free values while the owner overwrites — the
/// recorder stays ThreadSanitizer-clean with readers racing a wrap.
struct Rec {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::int64_t> t0_ns{0};
  std::atomic<std::int64_t> dur_ns{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::int32_t> omp_tid{0};
};

/// Per-thread wrapping ring.  head counts pushes forever; the live records
/// are the last min(head, kRingCapacity).  Owner-write-only.
struct Ring {
  int tid = -1;
  std::atomic<std::uint64_t> head{0};
  Rec recs[kRingCapacity];
};

static_assert((kRingCapacity & (kRingCapacity - 1)) == 0,
              "ring indexing relies on a power-of-two capacity");

// Fixed lock-free registry: the crash handler iterates this without a
// mutex.  Rings are never freed (threads' last moments must stay readable
// after the thread exits).
std::atomic<Ring*> g_rings[kMaxThreads] = {};
std::atomic<int> g_ring_count{0};

Ring& local_ring() {
  thread_local Ring* ring = [] {
    auto* r = new Ring();
    const int i = g_ring_count.fetch_add(1, std::memory_order_acq_rel);
    if (i < kMaxThreads) {
      r->tid = i;
      g_rings[i].store(r, std::memory_order_release);
    }
    return r;
  }();
  return *ring;
}

int registered_rings() noexcept {
  const int n = g_ring_count.load(std::memory_order_acquire);
  return n < kMaxThreads ? n : kMaxThreads;
}

// ---------------------------------------------------------------------------
// Async-signal-safe dump writer: a stack buffer flushed with write(2).
// No allocation, no locks, no stdio, no floating point.

struct DumpWriter {
  int fd;
  char buf[4096];
  std::size_t n = 0;

  explicit DumpWriter(int fd) : fd(fd) {}

  void flush() noexcept {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd, buf + off, n - off);
      if (w <= 0) break;  // best effort: a failing disk mid-crash is final
      off += static_cast<std::size_t>(w);
    }
    n = 0;
  }

  void put(char c) noexcept {
    if (n == sizeof buf) flush();
    buf[n++] = c;
  }

  void str(const char* s) noexcept {
    for (; *s != '\0'; ++s) put(*s);
  }

  /// JSON string payload: escapes quote/backslash, maps control chars to
  /// '?' (the \uXXXX spelling would need snprintf, which is off-limits).
  void jstr(const char* s) noexcept {
    put('"');
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        put('\\');
        put(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        put('?');
      } else {
        put(c);
      }
    }
    put('"');
  }

  void u64(std::uint64_t v) noexcept {
    char digits[24];
    int k = 0;
    do {
      digits[k++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (k > 0) put(digits[--k]);
  }

  void i64(std::int64_t v) noexcept {
    if (v < 0) {
      put('-');
      // Negate in unsigned space so INT64_MIN does not overflow.
      u64(~static_cast<std::uint64_t>(v) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
};

void dump_body(DumpWriter& w, const char* reason) noexcept {
  w.str("{\"fsi_crash_dump\":1,\"signal\":");
  w.jstr(reason);
  w.str(",\"pid\":");
  w.i64(static_cast<std::int64_t>(::getpid()));
  w.str(",\"uptime_ns\":");
  w.i64(obs::now_ns());

  const BuildInfo& b = build_info();
  w.str(",\"build\":{\"version\":");
  w.jstr(b.version);
  w.str(",\"git_sha\":");
  w.jstr(b.git_sha);
  w.str(",\"compiler\":");
  w.jstr(b.compiler);
  w.str(",\"build_type\":");
  w.jstr(b.build_type);
  w.str(",\"cxx_flags\":");
  w.jstr(b.cxx_flags);
  w.str("}");

  w.str(",\"counters\":{");
  std::uint64_t totals[static_cast<int>(metrics::Counter::kCount)];
  const int nc = metrics::totals_signal_safe(
      totals, static_cast<int>(metrics::Counter::kCount));
  for (int c = 0; c < nc; ++c) {
    if (c != 0) w.put(',');
    w.jstr(metrics::name(static_cast<metrics::Counter>(c)));
    w.put(':');
    w.u64(totals[c]);
  }
  w.str("}");

  w.str(",\"rings\":[");
  bool first_ring = true;
  const int rings = registered_rings();
  for (int i = 0; i < rings; ++i) {
    const Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t live =
        head < kRingCapacity ? head : static_cast<std::uint64_t>(kRingCapacity);
    if (!first_ring) w.put(',');
    first_ring = false;
    w.str("{\"tid\":");
    w.i64(r->tid);
    w.str(",\"pushed\":");
    w.u64(head);
    w.str(",\"records\":[");
    bool first_rec = true;
    for (std::uint64_t k = head - live; k != head; ++k) {
      const Rec& rec = r->recs[k & (kRingCapacity - 1)];
      const char* name = rec.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      if (!first_rec) w.put(',');
      first_rec = false;
      w.str("{\"name\":");
      w.jstr(name);
      w.str(",\"t0_ns\":");
      w.i64(rec.t0_ns.load(std::memory_order_relaxed));
      w.str(",\"dur_ns\":");
      w.i64(rec.dur_ns.load(std::memory_order_relaxed));
      w.str(",\"trace_id\":");
      w.u64(rec.trace_id.load(std::memory_order_relaxed));
      w.str(",\"omp_tid\":");
      w.i64(rec.omp_tid.load(std::memory_order_relaxed));
      w.str("}");
    }
    w.str("]}");
  }
  w.str("]}\n");
  w.flush();
}

// ---------------------------------------------------------------------------
// Crash handlers.

/// Dump path, resolved once at install time so the handler never touches
/// the environment.
char g_dump_path[1024] = "";
std::atomic<bool> g_installed{false};
std::atomic_flag g_in_handler = ATOMIC_FLAG_INIT;

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
  }
  return "SIGNAL";
}

void crash_handler(int sig) noexcept {
  // One dump per process: a second faulting thread (or a fault inside the
  // dump itself) skips straight to the re-raise.
  if (!g_in_handler.test_and_set()) {
    if (g_dump_path[0] != '\0') write_dump(signal_name(sig), g_dump_path);
  }
  // Restore the default disposition and re-raise so the exit status and
  // any core dump are exactly what they would have been without us.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

void record(const char* name, std::int64_t t0_ns, std::int64_t dur_ns,
            std::uint64_t trace_id, std::int32_t omp_tid) noexcept {
  if (!enabled()) return;
  Ring& r = local_ring();
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  Rec& rec = r.recs[h & (kRingCapacity - 1)];
  rec.name.store(name, std::memory_order_relaxed);
  rec.t0_ns.store(t0_ns, std::memory_order_relaxed);
  rec.dur_ns.store(dur_ns, std::memory_order_relaxed);
  rec.trace_id.store(trace_id, std::memory_order_relaxed);
  rec.omp_tid.store(omp_tid, std::memory_order_relaxed);
  r.head.store(h + 1, std::memory_order_release);
}

std::uint64_t recorded() noexcept {
  std::uint64_t total = 0;
  const int rings = registered_rings();
  for (int i = 0; i < rings; ++i)
    if (const Ring* r = g_rings[i].load(std::memory_order_acquire))
      total += r->head.load(std::memory_order_relaxed);
  return total;
}

std::vector<TraceEvent> snapshot() {
  std::vector<TraceEvent> out;
  const int rings = registered_rings();
  for (int i = 0; i < rings; ++i) {
    const Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t live =
        head < kRingCapacity ? head : static_cast<std::uint64_t>(kRingCapacity);
    for (std::uint64_t k = head - live; k != head; ++k) {
      const Rec& rec = r->recs[k & (kRingCapacity - 1)];
      const char* name = rec.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      out.push_back({name, rec.t0_ns.load(std::memory_order_relaxed),
                     rec.dur_ns.load(std::memory_order_relaxed),
                     rec.trace_id.load(std::memory_order_relaxed), r->tid,
                     rec.omp_tid.load(std::memory_order_relaxed)});
    }
  }
  return out;
}

void clear() noexcept {
  const int rings = registered_rings();
  for (int i = 0; i < rings; ++i) {
    Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    for (Rec& rec : r->recs) rec.name.store(nullptr, std::memory_order_relaxed);
    r->head.store(0, std::memory_order_relaxed);
  }
}

void install_crash_handlers() {
  bool expected = false;
  if (!g_installed.compare_exchange_strong(expected, true)) return;

  const char* dir = std::getenv("FSI_CRASH_DIR");
  if (dir == nullptr || dir[0] == '\0') dir = ".";
  std::snprintf(g_dump_path, sizeof g_dump_path, "%s/crash-%ld.fsi.json", dir,
                static_cast<long>(::getpid()));

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  // No SA_RESETHAND: the handler restores SIG_DFL itself so the one-dump
  // guard, not the kernel, decides who writes.
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE})
    ::sigaction(sig, &sa, nullptr);
}

const char* crash_dump_path() noexcept { return g_dump_path; }

bool write_dump(const char* reason, const char* path) noexcept {
  const int fd =
      ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);  // NOLINT(vararg)
  if (fd < 0) return false;
  DumpWriter w(fd);
  dump_body(w, reason);
  ::close(fd);
  return true;
}

}  // namespace fsi::obs::flight

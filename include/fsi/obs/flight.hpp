#pragma once
/// \file flight.hpp
/// \brief Crash flight recorder: always-on last-N span ring + signal-safe
/// crash dumps.
///
/// The tracing subsystem (trace.hpp) answers "where did the time go" but is
/// off by default; when a long-lived daemon crashes in production the trace
/// buffer is empty and the interesting question — *what was the process
/// doing in its last milliseconds* — has no answer.  The flight recorder
/// closes that gap: every span close writes one fixed-size record into a
/// per-thread ring that wraps (newest overwrites oldest), whether or not
/// FSI_TRACE is on.  The ring holds the last kRingCapacity spans per
/// thread; a push is a handful of relaxed atomic stores, cheap enough at
/// node/stage granularity to leave enabled in release builds
/// (FSI_FLIGHT=0 opts out).
///
/// On SIGSEGV / SIGABRT / SIGBUS / SIGFPE the installed handler writes
/// `crash-<pid>.fsi.json` (to FSI_CRASH_DIR, default the working directory)
/// containing the rings of every thread, a counter snapshot
/// (metrics::totals_signal_safe) and the build-info stamp — then re-raises
/// with the default disposition so exit codes and core dumps are
/// unchanged.  The entire dump path is async-signal-safe: open/write only,
/// no allocation, no locks, no stdio; span names must be string literals
/// (the existing Span contract), which is what makes them readable from
/// the handler.
///
/// `fsi_postmortem` renders a dump into a human summary and a
/// chrome://tracing timeline of the final moments.
///
/// Concurrency: rings are owner-write-only; record fields are relaxed
/// atomics so the crash handler (and the quiesced-test snapshot()) read
/// torn-free values.  A reader racing a wrapping writer may see a mix of
/// an old and a new record's fields — harmless for postmortem forensics,
/// and impossible in tests that snapshot quiesced threads.

#include <cstdint>
#include <vector>

#include "fsi/obs/trace.hpp"

namespace fsi::obs::flight {

/// Ring capacity per thread, in records (power of two; ~32 KiB per thread).
inline constexpr int kRingCapacity = 1024;

/// Rings visible to the crash handler / snapshot.  Threads beyond this
/// still record safely into their own (unregistered) ring.
inline constexpr int kMaxThreads = 256;

/// True when the recorder is active (default on; FSI_FLIGHT=0 disables).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Record one span close into the calling thread's ring (no-op when
/// disabled).  Called by obs::record_interval for every closing span.
void record(const char* name, std::int64_t t0_ns, std::int64_t dur_ns,
            std::uint64_t trace_id, std::int32_t omp_tid) noexcept;

/// Total records ever pushed (wrapped records still count).
std::uint64_t recorded() noexcept;

/// Copy out every registered ring's live records (tid = the ring's thread
/// id), oldest first per thread.  For tests and tools running on quiesced
/// threads; a concurrent writer can hand a reader one mixed record.
std::vector<TraceEvent> snapshot();

/// Reset every ring to empty (same non-racing contract as metrics::reset).
void clear() noexcept;

/// Install the SIGSEGV/SIGABRT/SIGBUS/SIGFPE crash handlers (idempotent).
/// Resolves FSI_CRASH_DIR once, here, into a static buffer so the handler
/// itself never calls getenv.  Tools and the serve daemon call this at
/// startup.
void install_crash_handlers();

/// The path the crash handler will write: "<dir>/crash-<pid>.fsi.json".
/// Valid after install_crash_handlers().
const char* crash_dump_path() noexcept;

/// Write a flight-recorder dump to \p path with \p reason as the "signal"
/// field.  This is the handler's own writer — async-signal-safe, open/write
/// only — exposed so tests and tools can produce a dump without crashing.
/// Returns false when the file cannot be created.
bool write_dump(const char* reason, const char* path) noexcept;

}  // namespace fsi::obs::flight

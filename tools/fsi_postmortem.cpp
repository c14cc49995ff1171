/// \file fsi_postmortem.cpp
/// \brief Render a flight-recorder crash dump (crash-<pid>.fsi.json) as a
/// human-readable post-mortem and, optionally, a chrome://tracing timeline.
///
/// Usage:
///   fsi_postmortem crash-1234.fsi.json [--trace out.trace.json]
///                  [--records 20] [--version]
///
/// The dump is what the async-signal-safe crash handler in obs::flight
/// managed to write between the fault and the re-raise: signal name, build
/// provenance, a counter snapshot, and the last ~1024 completed spans per
/// thread.  This tool answers the first three post-mortem questions without
/// a debugger: *which binary* crashed (build section), *what was it doing*
/// (the most recent spans, newest first), and *how much had it done*
/// (counters).  --trace re-emits every ring record as chrome://tracing
/// complete events — load the file in a trace viewer to see the final
/// milliseconds across all threads on a common timeline.
///
/// Exit status: 0 on a well-formed dump, 1 on a missing/invalid file.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fsi/obs/build.hpp"
#include "fsi/obs/json.hpp"
#include "fsi/obs/json_reader.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace fsi;
  const util::Cli cli(argc, argv);
  if (cli.has("version")) {
    std::fputs(obs::version_line("fsi_postmortem").c_str(), stdout);
    return 0;
  }

  // The dump path is the one positional argument (or --dump for scripts).
  // Cli flags are "--name value" pairs, so a flag's value token must not be
  // mistaken for the positional.
  std::string path = cli.get_string("dump", "");
  if (path.empty()) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (a[0] == '-') {
        if (std::strchr(a, '=') == nullptr && i + 1 < argc &&
            argv[i + 1][0] != '-')
          ++i;  // skip "--flag value"
        continue;
      }
      path = a;
      break;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: fsi_postmortem <crash-PID.fsi.json> "
                 "[--trace out.trace.json] [--records N]\n");
    return 1;
  }
  const std::string trace_out = cli.get_string("trace", "");
  const int show = std::max(1, cli.get_int("records", 20));

  const std::string text = obs::read_text_file(path);
  if (text.empty()) {
    std::fprintf(stderr, "fsi_postmortem: cannot read %s\n", path.c_str());
    return 1;
  }
  using obs::Json;
  Json doc;
  if (!obs::parse_json(text, &doc) || doc.kind != Json::Kind::Obj ||
      doc.find("fsi_crash_dump") == nullptr) {
    std::fprintf(stderr, "fsi_postmortem: %s is not an fsi crash dump\n",
                 path.c_str());
    return 1;
  }

  const std::string sig = doc.str_or("signal", "?");
  const std::int64_t pid = doc.i64_or("pid", 0);
  const double uptime_s = static_cast<double>(doc.i64_or("uptime_ns", 0)) * 1e-9;
  std::printf("crash dump    %s\n", path.c_str());
  std::printf("signal        %s   (pid %lld, uptime %.3f s)\n", sig.c_str(),
              static_cast<long long>(pid), uptime_s);

  if (const Json* b = doc.find("build")) {
    std::printf("build         %s (%s) [%s]\n",
                b->str_or("version", "?").c_str(),
                b->str_or("git_sha", "?").c_str(),
                b->str_or("build_type", "?").c_str());
    std::printf("compiler      %s\n", b->str_or("compiler", "?").c_str());
    std::printf("cxx_flags     %s\n", b->str_or("cxx_flags", "?").c_str());
  }

  if (const Json* c = doc.find("counters")) {
    std::vector<std::pair<std::string, std::uint64_t>> nonzero;
    for (const auto& [k, v] : c->obj) {
      const std::uint64_t n = std::strtoull(v.raw.c_str(), nullptr, 10);
      if (n != 0) nonzero.emplace_back(k, n);
    }
    std::printf("\ncounters      %zu non-zero of %zu\n", nonzero.size(),
                c->obj.size());
    for (const auto& [k, n] : nonzero)
      std::printf("  %-28s %llu\n", k.c_str(),
                  static_cast<unsigned long long>(n));
  }

  // Flatten the rings; the flight recorder keeps the last kRingCapacity
  // completed spans per thread, newest last within each ring.  Event names
  // point into doc, which outlives every use below.
  std::vector<obs::TraceEvent> spans;
  std::uint64_t pushed_total = 0;
  std::size_t ring_count = 0;
  if (const Json* rings = doc.find("rings");
      rings != nullptr && rings->kind == Json::Kind::Arr) {
    ring_count = rings->arr.size();
    for (const Json& ring : rings->arr) {
      pushed_total += ring.u64_or("pushed", 0);
      const Json* recs = ring.find("records");
      if (recs == nullptr || recs->kind != Json::Kind::Arr) continue;
      const auto tid = static_cast<std::int32_t>(ring.i64_or("tid", -1));
      for (const Json& r : recs->arr) {
        const Json* name = r.find("name");
        spans.push_back(
            {name != nullptr && name->kind == Json::Kind::Str
                 ? name->str.c_str()
                 : "?",
             r.i64_or("t0_ns", 0), r.i64_or("dur_ns", 0),
             r.u64_or("trace_id", 0), tid,
             static_cast<std::int32_t>(r.i64_or("omp_tid", 0))});
      }
    }
  }
  std::printf("\nflight rings  %zu thread%s, %llu spans pushed, %zu retained\n",
              ring_count, ring_count == 1 ? "" : "s",
              static_cast<unsigned long long>(pushed_total), spans.size());

  // The most recent spans (by end time) across all threads are the closest
  // thing to "what was it doing when it died".
  std::vector<obs::TraceEvent> recent = spans;
  std::sort(recent.begin(), recent.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.t0_ns + a.dur_ns > b.t0_ns + b.dur_ns;
            });
  if (recent.size() > static_cast<std::size_t>(show)) recent.resize(show);
  if (!recent.empty()) {
    std::printf("\nlast %zu spans (most recent first):\n", recent.size());
    for (const obs::TraceEvent& s : recent) {
      std::printf("  [tid %2d] %-24s end=%10.3f ms  dur=%9.3f ms", s.tid,
                  s.name,
                  static_cast<double>(s.t0_ns + s.dur_ns) * 1e-6,
                  static_cast<double>(s.dur_ns) * 1e-6);
      if (s.trace_id != 0)
        std::printf("  trace=%llu",
                    static_cast<unsigned long long>(s.trace_id));
      std::printf("\n");
    }
  }

  if (!trace_out.empty()) {
    if (!obs::write_text_file(trace_out, obs::chrome_trace_json(spans, pid))) {
      std::fprintf(stderr, "fsi_postmortem: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf("\ntimeline      %s (load in a chrome://tracing viewer)\n",
                trace_out.c_str());
  }
  return 0;
}

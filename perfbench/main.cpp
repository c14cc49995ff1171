/// \file main.cpp
/// \brief fsi_perfbench: one workload, one process.
///
///   fsi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 --out <raw.json> [--spans <spans.json>] [--setup-only]
///
/// Sets the workload up (model build, pools, server start and connect, one
/// untimed warm-up op), stamps the ready time, runs the timed phase, records
/// peak RSS, checks the outputs outside the timed phase and — for a traced
/// run — probes every layer at the workload's shape and writes the spans.
/// The raw record goes to --out; perfbench/run.py reduces it to metrics.
#include <sys/resource.h>
#include <time.h>

#include <omp.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "fsi/obs/build.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/qmc/lattice.hpp"
#include "fsi/sched/executor.hpp"

namespace perfbench {

std::int64_t mono_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

fsi::qmc::HubbardModel Shape::model() const {
  fsi::qmc::HubbardParams p;
  p.t = 1.0;
  p.u = u;
  p.beta = beta;
  p.l = l;
  return fsi::qmc::HubbardModel(ly == 1 ? fsi::qmc::Lattice::chain(lx)
                                        : fsi::qmc::Lattice::rectangle(lx, ly),
                                p);
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string number_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + number(v[i]);
  return out + "]";
}

std::string int_list(const std::vector<std::int64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + std::to_string(v[i]);
  return out + "]";
}

std::string log_json(const Results::RequestLog& log) {
  if (log.due_ns.empty()) return "null";
  return "{\"due_ns\":" + int_list(log.due_ns) + ",\"recv_ns\":" + int_list(log.recv_ns) + "}";
}

}  // namespace

std::string Results::to_json() const {
  std::ostringstream os;
  os << "{\"workload\":" << quote(workload) << ",\"seed\":" << seed
     << ",\"unit\":" << quote(unit) << ",\"units_per_op\":" << number(units_per_op)
     << ",\"ready_ns\":" << ready_ns << ",\"op_seconds\":" << number_list(op_seconds)
     << ",\"op_seconds_traced\":" << number_list(op_seconds_traced)
     << ",\"rate_hz\":" << number(rate_hz) << ",\"requests\":" << log_json(requests)
     << ",\"requests_traced\":" << log_json(requests_traced)
     << ",\"completed\":" << completed << ",\"elapsed_s\":" << number(elapsed_s)
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"peak_rss_mb\":" << number(peak_rss_mb) << ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i)
    os << (i ? "," : "") << "{\"name\":" << quote(checks[i].name)
       << ",\"ok\":" << (checks[i].ok ? "true" : "false")
       << ",\"detail\":" << quote(checks[i].detail) << "}";
  os << "],\"layers\":{";
  bool first = true;
  for (const auto& [name, samples] : layers) {
    os << (first ? "" : ",") << quote(name) << ":" << number_list(samples);
    first = false;
  }
  os << "},\"facts\":{";
  first = true;
  for (const auto& [name, value] : facts) {
    os << (first ? "" : ",") << quote(name) << ":" << quote(value);
    first = false;
  }
  os << "}}";
  return os.str();
}

void set_tracing(bool on) {
  Spans::instance().set_enabled(on);
  fsi::obs::set_enabled(on);
}

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

namespace {
thread_local std::vector<int> t_open;  // open spans of this thread

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int id = next++;
  return id;
}
}  // namespace

int Spans::begin(const char* name, std::uint64_t trace_id) {
  const int parent = t_open.empty() ? -1 : t_open.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, mono_ns(), 0, parent, trace_id, thread_number()});
  const int index = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(index);
  return index;
}

void Spans::end(int index) {
  const std::int64_t t1 = mono_ns();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].t1 = t1;
}

void Spans::record(const char* name, std::int64_t t0, std::int64_t t1,
                   std::uint64_t trace_id) {
  if (!enabled()) return;
  const int parent = t_open.empty() ? -1 : t_open.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t0, t1, parent, trace_id, thread_number()});
}

std::string Spans::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(s.t0) * 1e-3);
    os << (i ? ",\n" : "\n") << "{\"name\":" << quote(s.name)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.t1 - s.t0) * 1e-3);
    os << ",\"dur\":" << buf << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"trace_id\":" << s.trace_id << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace perfbench

namespace {

using namespace perfbench;

struct Args {
  std::string workload, out, spans;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") a.workload = value();
    else if (key == "--seed") a.seed = std::stoull(value());
    else if (key == "--seconds") a.seconds = std::stod(value());
    else if (key == "--trace") a.trace = value() != "0";
    else if (key == "--out") a.out = value();
    else if (key == "--spans") a.spans = value();
    else if (key == "--setup-only") a.setup_only = true;
    else throw std::runtime_error("unknown argument " + key);
  }
  if (a.workload.empty() || a.out.empty())
    throw std::runtime_error("--workload and --out are required");
  return a;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

void host_facts(Results& r) {
  const fsi::obs::BuildInfo& b = fsi::obs::build_info();
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1;
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  r.facts["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.facts["omp_max_threads"] = std::to_string(omp_get_max_threads());
  r.facts["OMP_NUM_THREADS"] = omp_env ? omp_env : "";
  r.facts["executor_pool_workers"] =
      std::to_string(fsi::sched::Executor::instance().pool_size());
  r.facts["loadavg_1m_at_start"] = std::to_string(load[0]);
  r.facts["build_type"] = b.build_type;
  r.facts["compiler"] = b.compiler;
  r.facts["cxx_flags"] = b.cxx_flags;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, args.trace);
    if (!w) throw std::runtime_error("unknown workload " + args.workload);
    Results r;
    r.workload = args.workload;
    r.seed = args.seed;
    host_facts(r);  // load average before our own load
    w->setup(r);
    r.ready_ns = mono_ns();
    r.facts["executor_pool_workers"] =
        std::to_string(fsi::sched::Executor::instance().pool_size());
    if (!args.setup_only) {
      w->run(args.seconds, args.trace, r);
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
      w->check(r);
      if (args.trace) {
        probe_layers(w->shape(), args.seed, w->in_situ_layers(), r);
        if (!args.spans.empty()) {
          write_file(args.spans, Spans::instance().json());
          fsi::obs::write_chrome_trace(args.spans + ".program.json");
        }
      }
    }
    w->teardown();
    write_file(args.out, r.to_json());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsi_perfbench: %s\n", e.what());
    return 1;
  }
}

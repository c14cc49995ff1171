#pragma once
/// \file bench.hpp
/// \brief Shared pieces of the fsi_perfbench binary: the workload shape,
/// the raw result record handed to perfbench/run.py, and the benchmark's
/// own span recorder.
///
/// fsi_perfbench measures; run.py reduces.  Every timing leaves this binary as
/// a raw sample list so that percentiles, rates and ratios are computed in
/// one place (perfbench/stats.py, covered by perfbench/test_stats.py).
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fsi/qmc/dqmc.hpp"
#include "fsi/qmc/greens.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/serve/client.hpp"
#include "fsi/serve/protocol.hpp"
#include "fsi/serve/socket.hpp"

namespace perfbench {

using fsi::dense::index_t;

/// CLOCK_MONOTONIC in nanoseconds — the clock run.py reads too, so the
/// set-up time can be taken across the process boundary.
std::int64_t mono_ns() noexcept;

/// Problem shape of a workload; the layer probes run at the same shape.
struct Shape {
  index_t lx = 8, ly = 8;  ///< ly == 1 selects the periodic chain
  index_t l = 16;          ///< imaginary-time slices L
  index_t c = 4;           ///< FSI cluster size
  double u = 4.0, beta = 4.0;
  bool time_dependent = true;  ///< Rows/Columns + SPXX besides the diagonals
  fsi::qmc::RecomputeMethod recompute = fsi::qmc::RecomputeMethod::QrAccumulate;

  index_t sites() const { return lx * ly; }
  fsi::qmc::HubbardModel model() const;
};

/// One output check made outside the timed region.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one fsi_perfbench process measured.  Serialised by to_json().
struct Results {
  std::string workload;
  std::uint64_t seed = 0;
  std::string unit;                   ///< unit of work: configuration, sweep, request
  double units_per_op = 1.0;          ///< work units carried by one timed op
  std::int64_t ready_ns = 0;          ///< mono_ns() when set-up finished
  std::vector<double> op_seconds;     ///< per-op wall time
  std::vector<double> op_seconds_traced;  ///< the same, from traced ops
  /// Open-loop request timelines (Ok responses, in send order).
  struct RequestLog {
    std::vector<std::int64_t> due_ns, recv_ns;
  };
  RequestLog requests, requests_traced;
  double rate_hz = 0.0;               ///< open-loop schedule rate
  std::uint64_t completed = 0;        ///< serve: responses received
  double elapsed_s = 0.0;             ///< serve: first due -> last response
  std::uint64_t attempted = 0;        ///< timed ops
  std::uint64_t failed = 0;           ///< ops that failed (see NOTES.md)
  std::vector<Check> checks;
  std::map<std::string, std::vector<double>> layers;  ///< per-layer samples
  std::map<std::string, std::string> facts;           ///< host + run facts
  double peak_rss_mb = 0.0;

  void layer(const std::string& name, double v) { layers[name].push_back(v); }
  std::string to_json() const;
};

/// Spans the benchmark records around its calls into the program.  Kept in
/// memory and written once, after the run; recording is off unless the
/// traced run enables it.  Thread-safe; the parent of a span is the
/// innermost open span of the calling thread.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t t0 = 0, t1 = 0;
    int parent = -1;
    std::uint64_t trace_id = 0;
    int tid = 0;
  };

  static Spans& instance();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  int begin(const char* name, std::uint64_t trace_id = 0);
  void end(int index);
  /// A closed interval recorded after the fact (e.g. a request's journey
  /// from its due time to its response, stamped on two threads).
  void record(const char* name, std::int64_t t0, std::int64_t t1,
              std::uint64_t trace_id = 0);
  std::string json() const;  ///< chrome://tracing "X" events

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<bool> enabled_{false};
};

/// RAII span around one call into a program layer.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t trace_id = 0)
      : index_(Spans::instance().enabled()
                   ? Spans::instance().begin(name, trace_id)
                   : -1) {}
  ~Scope() {
    if (index_ >= 0) Spans::instance().end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

/// A benchmark workload: set-up (including the untimed warm-up op), a
/// timed phase of fixed length, and output checks outside the timed phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Shape shape() const = 0;
  /// Layer families whose per-layer metrics this workload measures in its
  /// own traced ops; every other family is probed at shape().
  virtual std::vector<std::string> in_situ_layers() const = 0;
  virtual void setup(Results& out) = 0;
  /// \p traced: alternate untraced and traced ops (or halves, for the
  /// open-loop workload) and record in-situ per-layer samples.
  virtual void run(double seconds, bool traced, Results& out) = 0;
  virtual void check(Results& out) = 0;
  virtual void teardown() {}
};

/// The named workload, or nullptr.  \p traced installs the instrumented
/// variants (e.g. the serve engine wrapper that reads scheduler telemetry).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool traced);

/// Turn the benchmark's spans and the program's own trace on or off.
void set_tracing(bool on);

/// qmc.* samples of one run_dqmc call; \p recompute_s is the
/// Accum::GreensRecompute time it added (stabilised recomputes, which
/// run_dqmc reports inside greens_seconds).
void qmc_layer_samples(const fsi::qmc::DqmcResult& res, double recompute_s,
                       index_t sweeps, index_t measurement_sweeps,
                       Results& out);

/// qmc::run_fsi_batch under a span, appending the sched.* samples of the
/// call: its SchedSummary plus the workspace-pool counter deltas (which
/// run_fsi_batch leaves out of the summary).
std::vector<fsi::qmc::Measurements> traced_batch(
    const fsi::qmc::HubbardModel& model,
    const std::vector<fsi::qmc::FsiBatchTask>& tasks,
    const fsi::qmc::FsiBatchOptions& opts, Results& out);

/// Per-layer probes: time each layer's public entry point at \p shape and
/// append the samples to \p out.layers, skipping \p skip families.
void probe_layers(const Shape& shape, std::uint64_t seed,
                  const std::vector<std::string>& skip, Results& out);

/// Timeline of one open-loop serve run (all times mono_ns()).
struct OpenLoopRun {
  struct Request {
    std::int64_t due_ns = 0, sent_ns = 0, recv_ns = 0;
    std::size_t pool_index = 0;          ///< which pooled request was sent
    fsi::serve::InvertResponse response;  ///< measurements kept if sampled
  };
  std::vector<Request> requests;
};

/// One generator thread sends \p pool requests round-robin on a fixed
/// schedule (\p rate_hz; 0 sends back to back) until \p max_requests or
/// \p seconds, whichever comes first; one collector thread waits for the
/// responses in order.  Every \p keep_every-th response keeps its
/// measurements for the output check.
OpenLoopRun open_loop(fsi::serve::Client& client,
                      const std::vector<fsi::serve::InvertRequest>& pool,
                      double rate_hz, double seconds, std::size_t max_requests,
                      std::uint64_t first_id, std::size_t keep_every);

/// serve.* per-layer samples of one open-loop run plus the server's stats
/// delta across it.
void serve_layer_samples(const OpenLoopRun& run,
                         const fsi::serve::StatsResponse& before,
                         const fsi::serve::StatsResponse& after, Results& out);

/// Requests of \p shape with seed-derived HS fields.
std::vector<fsi::serve::InvertRequest> request_pool(const Shape& shape,
                                                    std::uint64_t seed,
                                                    std::size_t count);

/// The in-process reference a served response must match bit for bit.
std::vector<double> serve_reference(const fsi::serve::InvertRequest& req);

/// A unix-socket endpoint inside the working directory.
fsi::serve::Endpoint local_endpoint(const char* tag);

}  // namespace perfbench

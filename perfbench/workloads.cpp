/// \file workloads.cpp
/// \brief The four benchmark workloads (see perfbench/NOTES.md for why each
/// was chosen) and the open-loop serve load generator.
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/pcyclic/patterns.hpp"
#include "fsi/qmc/measurements.hpp"
#include "fsi/serve/server.hpp"
#include "fsi/stab/reference.hpp"

namespace perfbench {

namespace qmc = fsi::qmc;
namespace pcyclic = fsi::pcyclic;
namespace dense = fsi::dense;
namespace serve = fsi::serve;
namespace health = fsi::obs::health;
namespace metrics = fsi::obs::metrics;

namespace {

/// Deterministic per-input stream of the workload seed.
fsi::util::Rng stream(std::uint64_t seed, std::uint64_t index) {
  return fsi::util::Rng(seed, index + 1);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

/// Health verdict of the work done since the last health::reset(); the
/// checks that were not OK are appended to \p why as "name=worst".
health::Status verdict(std::string* why = nullptr) {
  const health::HealthReport report = health::report();
  if (why)
    for (const health::CheckRow& row : report.rows)
      if (row.status != health::Status::Ok) *why += " " + row.name + "=" + fmt(row.worst);
  return report.overall;
}

/// Relative difference with an absolute floor, for observables near 0.
double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(1e-12, std::max(std::abs(a), std::abs(b)));
}

// ---------------------------------------------------------------------------
// gf_batch: qmc::run_fsi_batch over batches of 8 heavy tasks.

class GfBatch final : public Workload {
 public:
  explicit GfBatch(std::uint64_t seed) : seed_(seed), model_(shape().model()) {
    opts_.cluster_size = shape().c;
  }

  Shape shape() const override {
    Shape s;
    s.lx = 8, s.ly = 8, s.l = 100, s.c = 10, s.u = 4.0, s.beta = 4.0;
    return s;
  }
  std::vector<std::string> in_situ_layers() const override { return {"sched"}; }

  void setup(Results& out) override {
    out.unit = "configuration";
    out.units_per_op = kBatch;
    qmc::run_fsi_batch(model_, make_batch(), opts_);  // warm-up op
  }

  void run(double seconds, bool traced, Results& out) override {
    const std::int64_t end = mono_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t op = 0; mono_ns() < end; ++op) {
      const bool traced_op = traced && op % 2 == 1;
      set_tracing(traced_op);
      std::vector<qmc::Measurements> meas;
      std::vector<qmc::FsiBatchTask> tasks;
      std::int64_t t0, t1;
      {
        Scope span("gf_batch.op");
        {
          Scope inputs("inputs.make_batch");
          tasks = make_batch();
        }
        health::reset();
        t0 = mono_ns();
        meas = traced_op ? traced_batch(model_, tasks, opts_, out)
                         : qmc::run_fsi_batch(model_, tasks, opts_);
        t1 = mono_ns();
      }
      set_tracing(false);
      const double wall = static_cast<double>(t1 - t0) * 1e-9;
      (traced_op ? out.op_seconds_traced : out.op_seconds).push_back(wall);
      ++out.attempted;
      if (verdict(&health_notes_) != health::Status::Ok) {
        ++out.failed;
        ++health_failures_;
      }
      // Keep the first op's task 0 and the latest op's task (op mod 8) for
      // the output check.
      const std::size_t pick = op == 0 ? 0 : op % kBatch;
      Sample s{tasks[pick].field, tasks[pick].q, meas[pick]};
      if (op == 0) first_ = std::move(s);
      else last_ = std::move(s);
    }
  }

  void check(Results& out) override {
    out.checks.push_back(Check{"gf_batch.health_ok_every_batch", health_failures_ == 0,
                               std::to_string(health_failures_) + " batches ended WARN/FAIL" +
                                   (health_notes_.empty() ? "" : ";" + health_notes_)});
    for (const std::optional<Sample>* s : {&first_, &last_}) {
      if (!s->has_value()) continue;
      Check c{"gf_batch.equal_time_vs_equal_time_greens", true, ""};
      const Sample& smp = **s;
      // Reference: every diagonal block from the stabilised chain product
      // qmc::equal_time_greens (no FSI code), measured by the same
      // accumulator.
      const Shape sh = shape();
      const pcyclic::Selection sel(sh.l, sh.c, smp.q);
      pcyclic::SelectedInversion up(pcyclic::Pattern::AllDiagonals, sh.sites(), sel);
      pcyclic::SelectedInversion dn(pcyclic::Pattern::AllDiagonals, sh.sites(), sel);
      for (index_t k = 0; k < sh.l; ++k) {
        up.slot(k, k) = qmc::equal_time_greens(model_, smp.field, qmc::Spin::Up, k, sh.c);
        dn.slot(k, k) = qmc::equal_time_greens(model_, smp.field, qmc::Spin::Down, k, sh.c);
      }
      qmc::Measurements ref(sh.l, smp.meas.num_distance_classes());
      ref.add_sample(1.0);
      qmc::accumulate_equal_time(model_.lattice(), up, dn, model_.params().t, 1.0,
                                 false, ref);
      const double worst = std::max(
          {rel_diff(ref.density_up(), smp.meas.density_up()),
           rel_diff(ref.density_down(), smp.meas.density_down()),
           rel_diff(ref.double_occupancy(), smp.meas.double_occupancy()),
           rel_diff(ref.kinetic_energy(), smp.meas.kinetic_energy()),
           rel_diff(ref.af_structure_factor(), smp.meas.af_structure_factor())});
      c.ok = worst < 1e-8;
      c.detail = "max relative difference " + fmt(worst) + " (tolerance 1e-8)";
      if (!c.ok) ++out.failed;
      out.checks.push_back(c);
    }
  }

 private:
  static constexpr std::size_t kBatch = 8;
  struct Sample {
    qmc::HsField field;
    index_t q;
    qmc::Measurements meas;
  };
  std::vector<qmc::FsiBatchTask> make_batch() {
    fsi::util::Rng rng = stream(seed_, batches_++);
    const Shape sh = shape();
    std::vector<qmc::FsiBatchTask> tasks;
    for (std::size_t i = 0; i < kBatch; ++i) {
      qmc::HsField field(sh.l, sh.sites(), rng);
      const auto q = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(sh.c)));
      tasks.push_back(qmc::FsiBatchTask{std::move(field), q, true});
    }
    return tasks;
  }

  std::uint64_t seed_;
  std::uint64_t batches_ = 0;
  qmc::HubbardModel model_;
  qmc::FsiBatchOptions opts_;
  std::optional<Sample> first_, last_;
  std::uint64_t health_failures_ = 0;
  std::string health_notes_;
};

// ---------------------------------------------------------------------------
// dqmc_sim / dqmc_large_beta: repeated qmc::run_dqmc calls of 1 warm-up and
// 2 measurement sweeps (the 1:2 ratio of the paper's Fig. 11).

class Dqmc final : public Workload {
 public:
  Dqmc(std::uint64_t seed, bool large_beta)
      : seed_(seed), large_beta_(large_beta), model_(shape().model()) {
    opts_.warmup_sweeps = kWarmup;
    opts_.measurement_sweeps = kMeasure;
    if (large_beta_) {
      opts_.cluster_size = shape().c;
      opts_.recompute = qmc::RecomputeMethod::Udt;
      opts_.measure_time_dependent = false;
    }
  }

  Shape shape() const override {
    Shape s;
    if (large_beta_) {
      s.lx = 4, s.ly = 4, s.l = 512, s.u = 4.0, s.beta = 64.0;
      s.time_dependent = false;
      s.recompute = qmc::RecomputeMethod::Udt;
      // The default c = 16 (the divisor of L nearest sqrt(L)) is marginal
      // here: NOTES.md, known failure points.
      s.c = 8;
    } else {
      s.lx = 8, s.ly = 8, s.l = 40, s.u = 4.0, s.beta = 4.0;
      s.recompute = qmc::default_recompute_method();
      s.c = qmc::default_cluster_size(s.l);
    }
    return s;
  }
  std::vector<std::string> in_situ_layers() const override { return {"qmc"}; }

  void setup(Results& out) override {
    out.unit = "sweep";
    out.units_per_op = static_cast<double>(kWarmup + kMeasure);
    call(nullptr);  // warm-up op
  }

  void run(double seconds, bool traced, Results& out) override {
    const std::int64_t end = mono_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t op = 0; mono_ns() < end; ++op) {
      const bool traced_op = traced && op % 2 == 1;
      const std::int64_t t0 = mono_ns();
      const bool ok = call(traced_op ? &out : nullptr);
      const double wall = static_cast<double>(mono_ns() - t0) * 1e-9;
      (traced_op ? out.op_seconds_traced : out.op_seconds).push_back(wall);
      ++out.attempted;
      if (!ok) ++out.failed;
    }
  }

  void check(Results& out) override {
    out.checks.push_back(Check{
        "dqmc.health_ok_every_call", health_failures_ == 0,
        std::to_string(health_failures_) + " of " + std::to_string(calls_) +
            " run_dqmc calls ended WARN/FAIL (worst drift " + fmt(worst_drift_) + ")" +
            (health_notes_.empty() ? "" : ";" + health_notes_)});
    out.checks.push_back(Check{"dqmc.measurements_finite", nonfinite_ == 0,
                               std::to_string(nonfinite_) + " calls with non-finite observables"});
    if (large_beta_) check_against_reference(out);
  }

 private:
  static constexpr index_t kWarmup = 1, kMeasure = 2;

  /// One run_dqmc call with a seed-derived Markov chain; returns false when
  /// the health verdict is not OK or the observables are not finite.  A
  /// non-null \p layers traces the call and receives its qmc.* samples.
  bool call(Results* layers) {
    opts_.seed = stream(seed_, calls_++)();
    health::reset();
    const double recompute0 = metrics::seconds(metrics::Accum::GreensRecompute);
    set_tracing(layers != nullptr);
    const qmc::DqmcResult res = [&] {
      Scope span("dqmc.op");
      Scope inner("qmc.run_dqmc");
      return qmc::run_dqmc(model_, opts_);
    }();
    set_tracing(false);
    if (layers)
      qmc_layer_samples(res, metrics::seconds(metrics::Accum::GreensRecompute) - recompute0,
                        kWarmup + kMeasure, kMeasure, *layers);
    worst_drift_ = std::max(worst_drift_, res.stats.max_drift);
    const bool healthy = verdict(&health_notes_) == health::Status::Ok;
    const qmc::Measurements& m = res.measurements;
    const bool finite = std::isfinite(m.density()) && std::isfinite(m.double_occupancy()) &&
                        std::isfinite(m.kinetic_energy()) && std::isfinite(m.avg_sign());
    if (!healthy) ++health_failures_;
    if (!finite) ++nonfinite_;
    return healthy && finite;
  }

  /// One equal-time G through the stab UDT path against stab's long-double
  /// reference chain, on a seed-derived field.
  void check_against_reference(Results& out) {
    const Shape sh = shape();
    fsi::util::Rng rng = stream(seed_, 1u << 30);
    const qmc::HsField field(sh.l, sh.sites(), rng);
    const index_t k = sh.l - 1;  // G(L-1, L-1) = (1 + B_{L-1} ... B_0)^-1
    const dense::Matrix g =
        qmc::stabilized_equal_time_greens(model_, field, qmc::Spin::Up, k, sh.c);
    std::vector<dense::Matrix> factors;
    for (index_t s = 0; s < sh.l; ++s)
      factors.push_back(model_.b_matrix(field, s, qmc::Spin::Up));
    const dense::Matrix ref = fsi::stab::reference_inverse_one_plus_chain(factors);
    double err = 0.0;
    for (index_t j = 0; j < g.cols(); ++j)
      for (index_t i = 0; i < g.rows(); ++i) err = std::max(err, std::abs(g(i, j) - ref(i, j)));
    const bool ok = err < 1e-8;
    out.checks.push_back(Check{"dqmc_large_beta.udt_vs_long_double_chain", ok,
                               "max |G_udt - G_ref| = " + fmt(err) + " (tolerance 1e-8)"});
    if (!ok) ++out.failed;
  }

  std::uint64_t seed_;
  bool large_beta_;
  qmc::HubbardModel model_;
  qmc::DqmcOptions opts_;
  std::uint64_t calls_ = 0, health_failures_ = 0, nonfinite_ = 0;
  double worst_drift_ = 0.0;
  std::string health_notes_;  ///< non-OK health checks, across calls
};

// ---------------------------------------------------------------------------
// serve_open: an in-process serve::Server under one open-loop generator.

class ServeOpen final : public Workload {
 public:
  /// Offered rate: below the band where the adaptive batching policy flaps
  /// and the server sheds (NOTES.md charts the rates above it).
  static constexpr double kRateHz = 150.0;

  ServeOpen(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  Shape shape() const override {
    Shape s;  // the InvertRequest defaults for t, U and beta
    s.lx = 8, s.ly = 1, s.l = 16, s.u = 2.0, s.beta = 1.0;
    s.c = qmc::default_cluster_size(s.l);
    return s;
  }
  std::vector<std::string> in_situ_layers() const override { return {"serve", "sched"}; }

  void setup(Results& out) override {
    out.unit = "request";
    out.rate_hz = kRateHz;
    serve::ServerOptions options;
    options.endpoint = local_endpoint("serve_open");
    if (traced_) {
      // Same engine as the default (qmc::run_fsi_batch), plus a span and
      // the scheduler telemetry of each batch while tracing is on.
      options.engine = [this](const qmc::HubbardModel& model,
                              const std::vector<qmc::FsiBatchTask>& tasks,
                              const qmc::FsiBatchOptions& opts) {
        if (!Spans::instance().enabled()) return qmc::run_fsi_batch(model, tasks, opts);
        std::lock_guard<std::mutex> lock(engine_mu_);
        return traced_batch(model, tasks, opts, engine_layers_);
      };
    }
    server_ = std::make_unique<serve::Server>(std::move(options));
    server_->start();
    client_ = std::make_unique<serve::Client>(server_->endpoint());
    pool_ = request_pool(shape(), seed_, 512);
    serve::InvertRequest warm = pool_.front();
    warm.id = next_id_++;
    const serve::InvertResponse resp = client_->request(warm);  // warm-up op
    if (resp.status != serve::Status::Ok)
      throw std::runtime_error("serve_open: warm-up request failed: " + resp.message);
  }

  void run(double seconds, bool traced, Results& out) override {
    health::reset();
    if (!traced) {
      phase(seconds, false, out);
    } else {
      // Alternate untraced and traced phases so both see the same host.
      const int phases = std::max(2, 2 * static_cast<int>(seconds / 4.0));
      for (int i = 0; i < phases; ++i) phase(seconds / phases, i % 2 == 1, out);
      std::lock_guard<std::mutex> lock(engine_mu_);
      for (auto& [name, samples] : engine_layers_.layers)
        out.layers[name].insert(out.layers[name].end(), samples.begin(), samples.end());
    }
    if (verdict(&health_notes_) != health::Status::Ok) ++out.failed;
  }

  void check(Results& out) override {
    std::size_t checked = 0, mismatched = 0;
    for (const OpenLoopRun::Request& r : kept_) {
      const std::vector<double> expected = serve_reference(pool_[r.pool_index]);
      const std::vector<double>& got = r.response.measurements;
      ++checked;
      if (expected.size() != got.size() ||
          std::memcmp(expected.data(), got.data(), got.size() * sizeof(double)) != 0)
        ++mismatched;
    }
    out.checks.push_back(Check{"serve_open.health_ok", health_notes_.empty(),
                               health_notes_.empty() ? "OK" : "WARN/FAIL:" + health_notes_});
    out.checks.push_back(Check{"serve_open.every_response_ok", not_ok_ == 0,
                               std::to_string(not_ok_) + " non-Ok responses"});
    out.failed += mismatched;
    out.checks.push_back(Check{"serve_open.bit_identical_to_run_fsi_batch",
                               checked > 0 && mismatched == 0,
                               std::to_string(mismatched) + " of " + std::to_string(checked) +
                                   " sampled responses differ"});
  }

  void teardown() override {
    client_.reset();
    if (server_) server_->stop();
    server_.reset();
  }

 private:
  void phase(double seconds, bool traced_phase, Results& out) {
    const serve::StatsResponse before = client_->stats();
    set_tracing(traced_phase);
    const std::size_t max_requests = static_cast<std::size_t>(seconds * kRateHz) + 1;
    OpenLoopRun run = open_loop(*client_, pool_, kRateHz, seconds, max_requests, next_id_,
                                std::max<std::size_t>(1, max_requests / 32));
    set_tracing(false);
    next_id_ += run.requests.size();
    const serve::StatsResponse after = client_->stats();
    Results::RequestLog& log = traced_phase ? out.requests_traced : out.requests;
    std::int64_t first_due = 0, last_recv = 0;
    for (OpenLoopRun::Request& r : run.requests) {
      ++out.attempted;
      if (r.response.status != serve::Status::Ok) {
        ++out.failed;
        ++not_ok_;
        continue;
      }
      if (first_due == 0) first_due = r.due_ns;
      last_recv = std::max(last_recv, r.recv_ns);
      log.due_ns.push_back(r.due_ns);
      log.recv_ns.push_back(r.recv_ns);
      if (!r.response.measurements.empty()) kept_.push_back(std::move(r));
    }
    if (!traced_phase) {
      out.completed += log.due_ns.size();
      out.elapsed_s += static_cast<double>(last_recv - first_due) * 1e-9;
    }
    serve_layer_samples(run, before, after, out);
    out.facts["serve.final_window_us"] = std::to_string(after.policy_window_us);
    out.facts["serve.final_max_batch"] = std::to_string(after.policy_max_batch);
    out.facts["serve.final_bypass"] = after.policy_bypass ? "1" : "0";
    out.facts["serve.bypass_enters"] = std::to_string(after.bypass_enters);
    out.facts["serve.bypass_exits"] = std::to_string(after.bypass_exits);
  }

  std::uint64_t seed_;
  bool traced_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Client> client_;
  std::vector<serve::InvertRequest> pool_;
  std::vector<OpenLoopRun::Request> kept_;
  std::uint64_t next_id_ = 1;
  std::uint64_t not_ok_ = 0;
  std::string health_notes_;
  std::mutex engine_mu_;
  Results engine_layers_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool traced) {
  if (name == "gf_batch") return std::make_unique<GfBatch>(seed);
  if (name == "dqmc_sim") return std::make_unique<Dqmc>(seed, false);
  if (name == "dqmc_large_beta") return std::make_unique<Dqmc>(seed, true);
  if (name == "serve_open") return std::make_unique<ServeOpen>(seed, traced);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serve load generation and the per-layer samples derived from it.

serve::Endpoint local_endpoint(const char* tag) {
  ::mkdir(".bench_out", 0755);
  return serve::Endpoint::parse("unix:.bench_out/" + std::string(tag) + "-" +
                                std::to_string(::getpid()) + ".sock");
}

std::vector<serve::InvertRequest> request_pool(const Shape& shape, std::uint64_t seed,
                                               std::size_t count) {
  std::vector<serve::InvertRequest> pool;
  for (std::size_t i = 0; i < count; ++i) {
    serve::InvertRequest r;
    r.lx = static_cast<std::uint32_t>(shape.lx);
    r.ly = static_cast<std::uint32_t>(shape.ly);
    r.l = static_cast<std::uint32_t>(shape.l);
    r.c = static_cast<std::uint32_t>(shape.c);
    r.u = shape.u;
    r.beta = shape.beta;
    r.time_dependent = shape.time_dependent;
    r.seed = stream(seed, 1000000 + i)();
    r.field = serve::random_field(r.lx, r.ly, r.l, r.seed);
    pool.push_back(std::move(r));
  }
  return pool;
}

std::vector<double> serve_reference(const serve::InvertRequest& req) {
  Shape sh;
  sh.lx = static_cast<index_t>(req.lx);
  sh.ly = static_cast<index_t>(req.ly);
  sh.l = static_cast<index_t>(req.l);
  sh.u = req.u;
  sh.beta = req.beta;
  const qmc::HubbardModel model = sh.model();
  const index_t c = serve::effective_cluster(req);
  std::vector<qmc::FsiBatchTask> tasks;
  tasks.push_back(qmc::FsiBatchTask{
      qmc::HsField::deserialize(sh.l, model.num_sites(), req.field.data(), req.field.size()),
      serve::resolve_q(req, c), req.time_dependent});
  qmc::FsiBatchOptions opts;
  opts.cluster_size = c;
  return qmc::run_fsi_batch(model, tasks, opts).front().serialize();
}

OpenLoopRun open_loop(serve::Client& client, const std::vector<serve::InvertRequest>& pool,
                      double rate_hz, double seconds, std::size_t max_requests,
                      std::uint64_t first_id, std::size_t keep_every) {
  OpenLoopRun run;
  run.requests.resize(max_requests);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<serve::InvertResponse>>> in_flight;
  bool done = false;

  // Collector: responses of one batch key arrive in submission order, so
  // waiting on the oldest future stamps each response when it lands.
  std::thread collector([&] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done || !in_flight.empty(); });
      if (in_flight.empty()) return;
      auto [i, fut] = std::move(in_flight.front());
      in_flight.pop_front();
      lock.unlock();
      serve::InvertResponse resp;  // status Error unless the future delivers
      try {
        resp = fut.get();
      } catch (const std::exception& e) {
        resp.message = e.what();
      }
      OpenLoopRun::Request& r = run.requests[i];
      r.recv_ns = mono_ns();
      Spans::instance().record("serve.request", r.due_ns, r.recv_ns, resp.trace_id);
      if (i % keep_every != 0) resp.measurements.clear();
      r.response = std::move(resp);
    }
  });

  const std::int64_t t0 = mono_ns() + 1000000;  // first request due in 1 ms
  const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const double period_ns = rate_hz > 0 ? 1e9 / rate_hz : 0.0;
  auto stop_collector = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
  };
  std::size_t sent = 0;
  try {
    for (; sent < max_requests; ++sent) {
      const std::int64_t due =
          period_ns > 0 ? t0 + static_cast<std::int64_t>(static_cast<double>(sent) * period_ns)
                        : mono_ns();
      if (due > stop) break;
      if (period_ns > 0) {
        const timespec ts{static_cast<time_t>(due / 1000000000),
                          static_cast<long>(due % 1000000000)};
        while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
        }
      }
      OpenLoopRun::Request& r = run.requests[sent];
      r.due_ns = due;
      r.pool_index = sent % pool.size();
      serve::InvertRequest req = pool[r.pool_index];
      req.id = first_id + sent;
      r.sent_ns = mono_ns();
      auto fut = client.submit(std::move(req));
      {
        std::lock_guard<std::mutex> lock(mu);
        in_flight.emplace_back(sent, std::move(fut));
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_collector();  // a failed submit must not leave the collector waiting
    throw;
  }
  stop_collector();
  run.requests.resize(sent);
  return run;
}

void serve_layer_samples(const OpenLoopRun& run, const serve::StatsResponse& before,
                         const serve::StatsResponse& after, Results& out) {
  // Raw per-response times; run.py takes their p50 (stats.percentile).
  double late_ms = 0.0;
  for (const OpenLoopRun::Request& r : run.requests) {
    late_ms = std::max(late_ms, static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
    if (r.response.status != serve::Status::Ok) continue;
    const auto& resp = r.response;
    out.layer("serve.queue_wait_ms", static_cast<double>(resp.queue_wait_ns) * 1e-6);
    out.layer("serve.batch_wait_ms", static_cast<double>(resp.batch_wait_ns) * 1e-6);
    out.layer("serve.exec_ms", static_cast<double>(resp.exec_ns) * 1e-6);
    const double server_ns =
        static_cast<double>(resp.queue_wait_ns + resp.batch_wait_ns + resp.exec_ns);
    out.layer("serve.transport_ms",
              (static_cast<double>(r.recv_ns - r.sent_ns) - server_ns) * 1e-6);
  }
  const double batches = static_cast<double>(after.batches - before.batches);
  out.layer("serve.batch_occupancy_mean",
            batches > 0 ? static_cast<double>(after.batched_requests - before.batched_requests) /
                              batches
                        : 0.0);
  out.layer("serve.policy_transitions",
            static_cast<double>((after.bypass_enters + after.bypass_exits) -
                                (before.bypass_enters + before.bypass_exits)));
  const double rejected = static_cast<double>(
      (after.rejected_full + after.rejected_quota) - (before.rejected_full + before.rejected_quota));
  out.layer("serve.rejected_ratio",
            run.requests.empty() ? 0.0 : rejected / static_cast<double>(run.requests.size()));
  out.layer("serve.gen_late_ms_max", late_ms);
}

std::vector<qmc::Measurements> traced_batch(const qmc::HubbardModel& model,
                                            const std::vector<qmc::FsiBatchTask>& tasks,
                                            const qmc::FsiBatchOptions& opts, Results& out) {
  qmc::SchedSummary s;
  const std::uint64_t hits0 = metrics::total(metrics::Counter::PoolHits);
  const std::uint64_t misses0 = metrics::total(metrics::Counter::PoolMisses);
  const std::int64_t t0 = mono_ns();
  std::vector<qmc::Measurements> meas;
  {
    Scope span("qmc.run_fsi_batch");
    meas = qmc::run_fsi_batch(model, tasks, opts, &s);
  }
  const double wall = static_cast<double>(mono_ns() - t0) * 1e-9;
  const double hits = static_cast<double>(metrics::total(metrics::Counter::PoolHits) - hits0);
  const double misses =
      static_cast<double>(metrics::total(metrics::Counter::PoolMisses) - misses0);
  double busy = 0.0;
  for (const double b : s.busy_seconds) busy += b;
  const double workers = static_cast<double>(std::max<std::size_t>(1, s.busy_seconds.size()));
  out.layer("sched.parallel_efficiency", wall > 0 ? busy / (workers * wall) : 0.0);
  out.layer("sched.critical_path_ms", s.critical_path_seconds * 1e3);
  out.layer("sched.balance", s.balance());
  out.layer("sched.stolen_tasks", static_cast<double>(s.stolen_tasks));
  out.layer("sched.pool_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  return meas;
}

void qmc_layer_samples(const qmc::DqmcResult& res, double recompute_s, index_t sweeps,
                       index_t measurement_sweeps, Results& out) {
  const double n = static_cast<double>(sweeps);
  const double m = static_cast<double>(std::max<index_t>(1, measurement_sweeps));
  const double recomputes = static_cast<double>(res.stats.recomputes);
  // run_dqmc already moves the recompute time from warmup_seconds (sweeps)
  // to greens_seconds; split it back out of the latter.
  out.layer("qmc.update_ms_per_sweep", res.timings.warmup_seconds / n * 1e3);
  out.layer("qmc.recompute_ms", recomputes > 0 ? recompute_s / recomputes * 1e3 : 0.0);
  out.layer("qmc.recomputes_per_sweep", recomputes / n);
  out.layer("qmc.greens_ms_per_measurement",
            (res.timings.greens_seconds - recompute_s) / m * 1e3);
  out.layer("qmc.measure_ms", res.timings.measure_seconds / m * 1e3);
  out.layer("qmc.acceptance", res.acceptance_rate);
  out.layer("qmc.max_drift", res.stats.max_drift);
}

}  // namespace perfbench

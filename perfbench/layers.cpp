/// \file layers.cpp
/// \brief Per-layer probes of the traced run: each layer's public entry
/// point timed at the workload's shape, from the benchmark's own spans.
///
/// A workload measures the layers it drives itself (its in_situ_layers());
/// every other layer family is probed here, so each traced run reports the
/// full per-layer set at its own shape.
#include <omp.h>

#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "fsi/dense/blas.hpp"
#include "fsi/dense/qr.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/serve/server.hpp"

namespace perfbench {

namespace qmc = fsi::qmc;
namespace dense = fsi::dense;
namespace pcyclic = fsi::pcyclic;
namespace metrics = fsi::obs::metrics;

namespace {

constexpr int kSamples = 5;

/// Seconds per call of \p f, one value per sample; each sample repeats the
/// call until it has run for at least \p min_s.
std::vector<double> per_call_seconds(const std::function<void()>& f, int samples,
                                     double min_s) {
  std::vector<double> out;
  for (int s = 0; s < samples; ++s) {
    int calls = 0;
    const std::int64_t t0 = mono_ns();
    std::int64_t t1 = t0;
    do {
      f();
      ++calls;
      t1 = mono_ns();
    } while (static_cast<double>(t1 - t0) * 1e-9 < min_s);
    out.push_back(static_cast<double>(t1 - t0) * 1e-9 / calls);
  }
  return out;
}

dense::Matrix random_matrix(index_t rows, index_t cols, fsi::util::Rng& rng) {
  dense::Matrix m(rows, cols);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

void probe_dense(const Shape& sh, std::uint64_t seed, Results& out) {
  Scope span("probe.dense");
  fsi::util::Rng rng(seed, 7);
  const int threads = omp_get_max_threads();
  auto gemm_gflops = [&](const char* name, index_t n, int team) {
    const dense::Matrix a = random_matrix(n, n, rng), b = random_matrix(n, n, rng);
    dense::Matrix c(n, n);
    omp_set_num_threads(team);
    Scope call("dense.gemm");
    for (const double s : per_call_seconds(
             [&] {
               dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, a.view(), b.view(), 0.0,
                           c.view());
             },
             kSamples, 0.02))
      out.layer(name, 2.0 * n * n * n / s * 1e-9);
    omp_set_num_threads(threads);
  };
  const index_t n = sh.sites();
  gemm_gflops("dense.gemm_gflops_1t", n, 1);
  gemm_gflops("dense.gemm_gflops_nt", n, threads);
  gemm_gflops("dense.peak_gflops", 512, threads);

  // Householder QR of a 2N x N panel (the BSOFI building block).
  const dense::Matrix panel = random_matrix(2 * n, n, rng);
  dense::Matrix work(2 * n, n);
  std::vector<double> tau;
  Scope call("dense.geqrf");
  const double flops = 2.0 * n * n * (2.0 * n - n / 3.0);
  for (const double s : per_call_seconds(
           [&] {
             work = panel;
             dense::geqrf(work.view(), tau);
           },
           kSamples, 0.02))
    out.layer("dense.geqrf_gflops", flops / s * 1e-9);
}

void probe_pcyclic_selinv(const Shape& sh, std::uint64_t seed, Results& out) {
  const qmc::HubbardModel model = sh.model();
  fsi::util::Rng rng(seed, 11);
  const qmc::HsField field(sh.l, sh.sites(), rng);
  {
    Scope span("probe.pcyclic");
    for (const double s : per_call_seconds(
             [&] {
               Scope call("pcyclic.build_m+BlockOps");
               const pcyclic::PCyclicMatrix m = model.build_m(field, qmc::Spin::Up);
               const pcyclic::BlockOps ops(m);
             },
             kSamples, 0.0))
      out.layer("pcyclic.build_ms", s * 1e3);
  }

  Scope span("probe.selinv");
  const pcyclic::PCyclicMatrix m_up = model.build_m(field, qmc::Spin::Up);
  const pcyclic::PCyclicMatrix m_dn = model.build_m(field, qmc::Spin::Down);
  const pcyclic::BlockOps ops_up(m_up), ops_dn(m_dn);
  std::vector<pcyclic::Pattern> patterns{pcyclic::Pattern::AllDiagonals};
  if (sh.time_dependent) {
    patterns.push_back(pcyclic::Pattern::Rows);
    patterns.push_back(pcyclic::Pattern::Columns);
  }
  fsi::selinv::FsiOptions opts;
  opts.c = sh.c;
  opts.q = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(sh.c)));
  for (int rep = 0; rep < 3; ++rep) {
    fsi::selinv::FsiStats up, dn;
    {
      Scope call("selinv.fsi_multi");
      fsi::selinv::fsi_multi(m_up, ops_up, patterns, opts, rng, &up);
      fsi::selinv::fsi_multi(m_dn, ops_dn, patterns, opts, rng, &dn);
    }
    const double cls = up.seconds_cls + dn.seconds_cls;
    const double wrap = up.seconds_wrap + dn.seconds_wrap;
    const double bsofi = up.seconds_bsofi + dn.seconds_bsofi;
    out.layer("selinv.cls_ms", cls * 1e3);
    out.layer("selinv.wrap_ms", wrap * 1e3);
    out.layer("selinv.cls_gflops",
              static_cast<double>(up.flops_cls + dn.flops_cls) / cls * 1e-9);
    out.layer("selinv.wrap_gflops",
              static_cast<double>(up.flops_wrap + dn.flops_wrap) / wrap * 1e-9);
    out.layer("selinv.flops_per_gf", static_cast<double>(up.flops_total() + dn.flops_total()));
    out.layer("bsofi.invert_ms", bsofi * 1e3);
    out.layer("bsofi.gflops",
              static_cast<double>(up.flops_bsofi + dn.flops_bsofi) / bsofi * 1e-9);
  }
}

void probe_qmc(const Shape& sh, std::uint64_t seed, Results& out) {
  Scope span("probe.qmc");
  const qmc::HubbardModel model = sh.model();
  qmc::DqmcOptions opts;
  opts.warmup_sweeps = 1;
  opts.measurement_sweeps = 2;
  opts.cluster_size = sh.c;
  opts.recompute = sh.recompute;
  opts.measure_time_dependent = sh.time_dependent;
  opts.seed = seed;
  const double recompute0 = metrics::seconds(metrics::Accum::GreensRecompute);
  Scope call("qmc.run_dqmc");
  const qmc::DqmcResult res = qmc::run_dqmc(model, opts);
  qmc_layer_samples(res, metrics::seconds(metrics::Accum::GreensRecompute) - recompute0,
                    3, 2, out);
}

void probe_stab(const Shape& sh, std::uint64_t seed, Results& out) {
  Scope span("probe.stab");
  const qmc::HubbardModel model = sh.model();
  fsi::util::Rng rng(seed, 13);
  const qmc::HsField field(sh.l, sh.sites(), rng);
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t qrp0 = metrics::total(metrics::Counter::StabQrp);
    const std::int64_t t0 = mono_ns();
    {
      Scope call("qmc.stabilized_equal_time_greens");
      qmc::stabilized_equal_time_greens(model, field, qmc::Spin::Up, 0, sh.c);
    }
    out.layer("stab.recompute_ms", static_cast<double>(mono_ns() - t0) * 1e-6);
    out.layer("stab.qrp_per_recompute",
              static_cast<double>(metrics::total(metrics::Counter::StabQrp) - qrp0));
    out.layer("stab.scale_spread_log10", metrics::get(metrics::Gauge::StabScaleSpread));
  }
}

void probe_sched(const Shape& sh, std::uint64_t seed, Results& out) {
  Scope span("probe.sched");
  const qmc::HubbardModel model = sh.model();
  fsi::util::Rng rng(seed, 17);
  qmc::FsiBatchOptions opts;
  opts.cluster_size = sh.c;
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<qmc::FsiBatchTask> tasks;
    for (int i = 0; i < 8; ++i) {
      qmc::HsField field(sh.l, sh.sites(), rng);
      const auto q = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(sh.c)));
      tasks.push_back(qmc::FsiBatchTask{std::move(field), q, sh.time_dependent});
    }
    traced_batch(model, tasks, opts, out);
  }
}

void probe_serve(const Shape& sh, std::uint64_t seed, Results& out) {
  Scope span("probe.serve");
  fsi::serve::ServerOptions options;
  options.endpoint = local_endpoint("probe");
  fsi::serve::Server server(std::move(options));
  server.start();
  {
    fsi::serve::Client client(server.endpoint());
    const auto pool = request_pool(sh, seed, 16);
    client.request(pool.front());
    const fsi::serve::StatsResponse before = client.stats();
    const OpenLoopRun run = open_loop(client, pool, 0.0, 1e9, pool.size(), 1000, pool.size());
    serve_layer_samples(run, before, client.stats(), out);
  }
  server.stop();
}

bool skipped(const std::vector<std::string>& skip, const char* family) {
  return std::find(skip.begin(), skip.end(), family) != skip.end();
}

}  // namespace

void probe_layers(const Shape& shape, std::uint64_t seed,
                  const std::vector<std::string>& skip, Results& out) {
  set_tracing(true);
  probe_dense(shape, seed, out);
  probe_pcyclic_selinv(shape, seed, out);
  if (!skipped(skip, "qmc")) probe_qmc(shape, seed, out);
  probe_stab(shape, seed, out);
  if (!skipped(skip, "sched")) probe_sched(shape, seed, out);
  if (!skipped(skip, "serve")) probe_serve(shape, seed, out);
  set_tracing(false);
}

}  // namespace perfbench

/// \file bench_fig8_perf.cpp
/// \brief Paper Fig. 8 (top) — per-stage performance of FSI vs block size.
///
/// "The top plot shows the performance profile of the three steps of FSI on
///  the Ivy Bridge processor ... the lower performance rate of the dense
///  matrix inversions (BSOFI) is compensated by DGEMM-rich operations at
///  the clustering and wrapping steps."
///
/// Workload: b = L/c = 10 block columns, (L, c) = (100, 10), sweeping N.
/// Default sizes are scaled for a single core; --paper restores the paper's
/// N in {256, 400, 576, 784, 1024} (several minutes); --quick is the CI
/// smoke shape (two small N, seconds).
///
///   ./bench_fig8_perf [--paper|--quick] [--L 100] [--c 10] [--trace]
///                     [--no-trace] [--no-health] [--health-sample N]
///
/// With --trace (or FSI_TRACE=1) every FSI stage and per-cluster/per-panel
/// iteration is recorded and exported as bench_fig8_perf.trace.json.
/// Always writes BENCH_bench_fig8_perf.json telemetry; CI regression-gates
/// on the machine-stable `fsi_efficiency_vs_dgemm` ratio.

#include <vector>

#include "common.hpp"

#include "fsi/util/fpenv.hpp"

int main(int argc, char** argv) {
  fsi::util::enable_flush_to_zero();
  using namespace fsi;
  using namespace fsi::bench;
  util::Cli cli(argc, argv);
  const index_t l = cli.get_int("L", 100);
  const index_t c = cli.get_int("c", 10);
  init_trace(cli);

  obs::BenchTelemetry telemetry("bench_fig8_perf");
  telemetry.add_info("L", static_cast<double>(l));
  telemetry.add_info("c", static_cast<double>(c));

  std::vector<index_t> sizes = {64, 96, 128, 192, 256};
  if (cli.has("paper")) sizes = {256, 400, 576, 784, 1024};
  if (cli.has("quick")) sizes = {48, 64};
  telemetry.add_info("sizes", static_cast<double>(sizes.size()));
  telemetry.add_info("n_max", static_cast<double>(sizes.back()));

  print_header("Fig. 8 (top) — FSI per-stage performance rate vs N",
               "CLS and WRP run near the DGEMM rate; BSOFI lower; total "
               "~180 Gflops at 12 cores (paper) — shapes reproduce per-core");

  util::Table t({"N", "DGEMM GF/s", "CLS GF/s", "BSOFI GF/s", "WRP GF/s",
                 "FSI total GF/s", "FSI time s"});
  double last_peak = 0.0, last_fsi = 0.0;
  for (index_t n : sizes) {
    const double peak = dgemm_gflops(n);
    pcyclic::PCyclicMatrix m = make_hubbard(n, l);
    StageProfile p = profile_fsi(m, c, pcyclic::Pattern::Columns, 3);
    const double fsi_rate = p.gflops(p.total_seconds(), p.total_flops());
    t.add_row({util::Table::num((long long)n), util::Table::num(peak, 1),
               util::Table::num(p.gflops(p.seconds.cls, p.flops_cls), 1),
               util::Table::num(p.gflops(p.seconds.bsofi, p.flops_bsofi), 1),
               util::Table::num(p.gflops(p.seconds.wrap, p.flops_wrap), 1),
               util::Table::num(fsi_rate, 1),
               util::Table::num(p.total_seconds(), 2)});
    last_peak = peak;
    last_fsi = fsi_rate;
    char key[48];
    std::snprintf(key, sizeof key, "fsi_gflops_n%d", (int)n);
    telemetry.add_metric(key, fsi_rate, "gflops");
  }
  t.print();
  std::printf(
      "\nshape check (paper): BSOFI column < CLS/WRP columns ~ DGEMM column;\n"
      "FSI total approaches the DGEMM practical peak as N grows.\n");

  // The CI gate: FSI rate relative to the same machine's DGEMM practical
  // peak at the largest N — stable across hosts where raw GFLOP/s is not.
  telemetry.add_metric("dgemm_gflops_nmax", last_peak, "gflops");
  telemetry.add_metric("fsi_efficiency_vs_dgemm",
                       last_peak > 0.0 ? last_fsi / last_peak : 0.0, "ratio",
                       /*gate=*/true);
  finish_bench(telemetry);
  return 0;
}

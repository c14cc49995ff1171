/// Tests for the binned error analysis and the pair-field susceptibility.

#include <gtest/gtest.h>

#include <cmath>

#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/qmc/binning.hpp"
#include "fsi/qmc/dqmc.hpp"
#include "fsi/qmc/measurements.hpp"
#include "fsi/selinv/fsi.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::qmc;

TEST(BinnedScalar, MeanOverAllSamples) {
  BinnedScalar b(3);
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) b.add(v);
  EXPECT_EQ(b.num_samples(), 5u);
  EXPECT_EQ(b.num_complete_bins(), 1u);  // [1,2,3] complete; [4,5] partial
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(BinnedScalar, IndependentSamplesErrorMatchesCLT) {
  // i.i.d. uniform(0,1): sigma = sqrt(1/12); standard error of the mean
  // ~ sigma / sqrt(n), independent of binning for uncorrelated data.
  util::Rng rng(81);
  BinnedScalar b(10);
  const int n = 20000;
  for (int i = 0; i < n; ++i) b.add(rng.uniform());
  EXPECT_NEAR(b.mean(), 0.5, 0.01);
  const double expected_err = std::sqrt(1.0 / 12.0 / n);
  EXPECT_NEAR(b.error(), expected_err, expected_err * 0.4);
  // Rebinning should not change the error much for i.i.d. samples.
  const double rebinned_err = b.rebinned(4).error();
  EXPECT_NEAR(rebinned_err, expected_err, expected_err * 0.6);
}

TEST(BinnedScalar, CorrelatedSamplesNeedBigBins) {
  // AR(1) series with strong autocorrelation: tiny bins underestimate the
  // error; the estimate must grow materially under rebinning.
  util::Rng rng(82);
  BinnedScalar small_bins(2);
  const double rho = 0.95;
  double x = 0.0;
  for (int i = 0; i < 40000; ++i) {
    x = rho * x + rng.uniform(-1.0, 1.0);
    small_bins.add(x);
  }
  const double err_small = small_bins.error();
  const double err_big = small_bins.rebinned(64).error();
  EXPECT_GT(err_big, 2.0 * err_small)
      << "binning must reveal the autocorrelation";
}

TEST(BinnedScalar, EdgeCases) {
  EXPECT_THROW(BinnedScalar(0), util::CheckError);
  BinnedScalar b(4);
  EXPECT_DOUBLE_EQ(b.mean(), 0.0);
  EXPECT_DOUBLE_EQ(b.error(), 0.0);  // no bins yet
  b.add(2.0);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  EXPECT_DOUBLE_EQ(b.error(), 0.0);  // still < 2 complete bins
}

// ---------------------------------------------------------------------------

TEST(PairSusceptibility, MatchesDenseInverseComputation) {
  const dense::index_t nx = 3, l = 6, c = 2, q = 1;
  HubbardParams p;
  p.u = 2.0;
  p.beta = 1.5;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(83);
  HsField h(l, nx, rng);

  auto rows_of = [&](Spin spin) {
    const auto m = model.build_m(h, spin);
    const pcyclic::BlockOps ops(m);
    const pcyclic::Selection sel(l, c, q);
    const auto reduced = selinv::cluster(m, c, q);
    const auto gtilde = bsofi::invert(reduced);
    return selinv::wrap(ops, gtilde, pcyclic::Pattern::Rows, sel);
  };
  auto rows_up = rows_of(Spin::Up);
  auto rows_dn = rows_of(Spin::Down);

  Measurements meas(l, model.lattice().num_distance_classes());
  meas.add_sample(1.0);
  accumulate_pair_susceptibility(model.lattice(), rows_up, rows_dn, p.dtau(),
                                 1.0, meas);

  // Dense reference.
  Matrix gu = pcyclic::full_inverse_dense(model.build_m(h, Spin::Up));
  Matrix gd = pcyclic::full_inverse_dense(model.build_m(h, Spin::Down));
  const pcyclic::Selection sel(l, c, q);
  double expected = 0.0;
  for (dense::index_t k : sel.indices())
    for (dense::index_t ell = 0; ell < l; ++ell) {
      Matrix bu = pcyclic::dense_block(gu, nx, k, ell);
      Matrix bd = pcyclic::dense_block(gd, nx, k, ell);
      for (dense::index_t j = 0; j < nx; ++j)
        for (dense::index_t i = 0; i < nx; ++i)
          expected += bu(i, j) * bd(i, j);
    }
  expected *= p.dtau() / (nx * static_cast<double>(sel.b()));
  EXPECT_NEAR(meas.pair_susceptibility(), expected, 1e-10);
}

TEST(PairSusceptibility, PositiveAndFiniteInDqmc) {
  HubbardParams p;
  p.u = 2.0;
  p.beta = 2.0;
  p.l = 8;
  HubbardModel model(Lattice::rectangle(2, 2), p);
  DqmcOptions opt;
  opt.warmup_sweeps = 10;
  opt.measurement_sweeps = 30;
  opt.cluster_size = 4;
  opt.seed = 84;
  DqmcResult r = run_dqmc(model, opt);
  EXPECT_GT(r.measurements.pair_susceptibility(), 0.0);
  EXPECT_LT(r.measurements.pair_susceptibility(), 10.0);
}

TEST(PairSusceptibility, RejectsWrongPatterns) {
  const dense::index_t nx = 2, l = 4;
  HubbardParams p;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(85);
  HsField h(l, nx, rng);
  const auto m = model.build_m(h, Spin::Up);
  const pcyclic::BlockOps ops(m);
  const pcyclic::Selection sel(l, 2, 0);
  const auto gtilde = bsofi::invert(selinv::cluster(m, 2, 0));
  auto cols = selinv::wrap(ops, gtilde, pcyclic::Pattern::Columns, sel);
  auto rows = selinv::wrap(ops, gtilde, pcyclic::Pattern::Rows, sel);
  Measurements meas(l, model.lattice().num_distance_classes());
  EXPECT_THROW(accumulate_pair_susceptibility(model.lattice(), cols, rows, 0.1,
                                              1.0, meas),
               util::CheckError);
}

}  // namespace

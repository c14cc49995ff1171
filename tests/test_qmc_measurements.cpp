/// Tests for the measurement layer: accumulator algebra, equal-time
/// observables against exact free-fermion results, and SPXX consistency
/// between the FSI-selected blocks and a dense inverse.

#include <gtest/gtest.h>

#include <cmath>

#include "fsi/dense/expm.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/qmc/greens.hpp"
#include "fsi/qmc/measurements.hpp"
#include "fsi/selinv/fsi.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::qmc;

TEST(Measurements, MergeAndSerializeRoundTrip) {
  Measurements a(4, 3), b(4, 3);
  a.add_sample(1.0);
  a.add_density(0.5, 0.4);
  a.add_double_occupancy(0.2);
  a.add_kinetic_energy(-1.0);
  a.add_spxx(2, 1, 0.25);
  b.add_sample(-1.0);
  b.add_density(-0.1, -0.2);

  Measurements c = Measurements::deserialize(4, 3, a.serialize());
  c.merge(b);
  EXPECT_DOUBLE_EQ(c.samples(), 2.0);
  EXPECT_DOUBLE_EQ(c.avg_sign(), 0.0);
  // sign_sum = 0: estimators must not divide by zero.
  EXPECT_DOUBLE_EQ(c.density(), 0.0);

  Measurements d = Measurements::deserialize(4, 3, a.serialize());
  EXPECT_DOUBLE_EQ(d.avg_sign(), 1.0);
  EXPECT_DOUBLE_EQ(d.density_up(), 0.5);
  EXPECT_DOUBLE_EQ(d.density(), 0.9);
  EXPECT_DOUBLE_EQ(d.double_occupancy(), 0.2);
  EXPECT_DOUBLE_EQ(d.local_moment(), 0.9 - 0.4);
  EXPECT_DOUBLE_EQ(d.spxx(2, 1), 0.25);
}

TEST(Measurements, ShapeMismatchThrows) {
  Measurements a(4, 3), b(5, 3);
  EXPECT_THROW(a.merge(b), util::CheckError);
  EXPECT_THROW(Measurements::deserialize(4, 4, a.serialize()), util::CheckError);
  EXPECT_THROW(a.spxx(4, 0), util::CheckError);
}

/// Build the full FSI block set for one spin of one configuration.
struct Blocks {
  pcyclic::SelectedInversion diag, rows, cols;
};
Blocks fsi_blocks(const HubbardModel& model, const HsField& h, Spin spin,
                  index_t c, index_t q) {
  const pcyclic::PCyclicMatrix m = model.build_m(h, spin);
  const pcyclic::BlockOps ops(m);
  const pcyclic::Selection sel(m.num_blocks(), c, q);
  const auto reduced = selinv::cluster(m, c, q);
  const auto gtilde = bsofi::invert(reduced);
  return Blocks{
      selinv::wrap(ops, gtilde, pcyclic::Pattern::AllDiagonals, sel),
      selinv::wrap(ops, gtilde, pcyclic::Pattern::Rows, sel),
      selinv::wrap(ops, gtilde, pcyclic::Pattern::Columns, sel)};
}

TEST(EqualTimeObservables, UZeroMatchesExactFreeFermions) {
  // At U = 0: G is h-independent, n_sigma = 1 - tr(G)/N exactly, and
  // d = <n_up n_dn> = n_up * n_dn site-resolved.
  const index_t nx = 4, l = 8;
  HubbardParams p;
  p.t = 1.0;
  p.u = 0.0;
  p.beta = 2.0;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(701);
  HsField h(l, nx, rng);

  Blocks up = fsi_blocks(model, h, Spin::Up, 4, 1);
  Blocks dn = fsi_blocks(model, h, Spin::Down, 4, 1);

  Measurements meas(l, model.lattice().num_distance_classes());
  meas.add_sample(1.0);
  accumulate_equal_time(model.lattice(), up.diag, dn.diag, p.t, 1.0, true, meas);

  // Exact: G = (I + e^{beta t K})^-1.
  Matrix kb(nx, nx);
  dense::copy(model.lattice().adjacency(), kb);
  dense::scal(p.t * p.beta, kb);
  Matrix a = dense::expm(kb);
  for (index_t d = 0; d < nx; ++d) a(d, d) += 1.0;
  Matrix g = dense::inverse(a);

  double n_exact = 0.0, docc_exact = 0.0, kin_exact = 0.0;
  for (index_t i = 0; i < nx; ++i) {
    n_exact += (1.0 - g(i, i));
    docc_exact += (1.0 - g(i, i)) * (1.0 - g(i, i));
    for (index_t j : model.lattice().neighbors(i))
      kin_exact += p.t * 2.0 * g(j, i);  // both spins
  }
  n_exact /= nx;
  docc_exact /= nx;
  kin_exact /= nx;

  EXPECT_NEAR(meas.density_up(), n_exact, 1e-9);
  EXPECT_NEAR(meas.density_down(), n_exact, 1e-9);
  EXPECT_NEAR(meas.double_occupancy(), docc_exact, 1e-9);
  EXPECT_NEAR(meas.kinetic_energy(), kin_exact, 1e-9);
  // Half filling at mu = 0: n = 1 by particle-hole symmetry.
  EXPECT_NEAR(meas.density(), 1.0, 1e-9);
}

TEST(EqualTimeObservables, AfStructureFactorUZeroMatchesWick) {
  // At U = 0, m_i = 0 per configuration and S_AF reduces to the pure Wick
  // term sum_ij s_i s_j sum_s (delta_ij - G(j,i)) G(i,j) / N with the exact
  // free-fermion G.
  const index_t l = 4;
  HubbardParams p;
  p.t = 1.0;
  p.u = 0.0;
  p.beta = 1.0;
  p.l = l;
  HubbardModel model(Lattice::rectangle(2, 2), p);  // N = 4, bipartite
  util::Rng rng(705);
  HsField h(l, 4, rng);

  Blocks up = fsi_blocks(model, h, Spin::Up, 2, 0);
  Blocks dn = fsi_blocks(model, h, Spin::Down, 2, 0);
  Measurements meas(l, model.lattice().num_distance_classes());
  meas.add_sample(1.0);
  accumulate_equal_time(model.lattice(), up.diag, dn.diag, p.t, 1.0, true, meas);

  Matrix kb(4, 4);
  dense::copy(model.lattice().adjacency(), kb);
  dense::scal(p.t * p.beta, kb);
  Matrix a = dense::expm(kb);
  for (index_t d = 0; d < 4; ++d) a(d, d) += 1.0;
  Matrix g = dense::inverse(a);

  double expected = 0.0;
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) {
      const double delta = (i == j) ? 1.0 : 0.0;
      expected += model.lattice().parity(i) * model.lattice().parity(j) * 2.0 *
                  (delta - g(j, i)) * g(i, j);
    }
  expected /= 4.0;
  EXPECT_NEAR(meas.af_structure_factor(), expected, 1e-9);
  EXPECT_GT(meas.af_structure_factor(), 0.0);  // Pauli correlations are AF
}

TEST(EqualTimeObservables, AfSerializeRoundTripsThroughBuffer) {
  Measurements a(3, 2);
  a.add_sample(1.0);
  a.add_af_structure_factor(0.375);
  Measurements b = Measurements::deserialize(3, 2, a.serialize());
  EXPECT_DOUBLE_EQ(b.af_structure_factor(), 0.375);
}

TEST(Spxx, MatchesDenseInverseComputation) {
  // SPXX accumulated from FSI rows+columns must equal the same double sum
  // evaluated from the blocks of a dense NL x NL inverse.
  const index_t nx = 3, l = 6, c = 2, q = 1;
  HubbardParams p;
  p.t = 1.0;
  p.u = 2.0;
  p.beta = 1.5;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(702);
  HsField h(l, nx, rng);

  Blocks up = fsi_blocks(model, h, Spin::Up, c, q);
  Blocks dn = fsi_blocks(model, h, Spin::Down, c, q);
  const index_t dmax = model.lattice().num_distance_classes();

  Measurements meas(l, dmax);
  meas.add_sample(1.0);
  accumulate_spxx(model.lattice(), up.rows, up.cols, dn.rows, dn.cols, 1.0,
                  meas);

  // Dense reference.
  Matrix gu = pcyclic::full_inverse_dense(model.build_m(h, Spin::Up));
  Matrix gd = pcyclic::full_inverse_dense(model.build_m(h, Spin::Down));
  const pcyclic::Selection sel(l, c, q);
  const auto selected = sel.indices();
  const auto& sizes = model.lattice().distance_class_sizes();

  for (index_t tau = 0; tau < l; ++tau) {
    std::vector<double> ref(static_cast<std::size_t>(dmax), 0.0);
    for (index_t k : selected) {
      const index_t ell = ((k - tau) % l + l) % l;
      Matrix gu_kl = pcyclic::dense_block(gu, nx, k, ell);
      Matrix gd_lk = pcyclic::dense_block(gd, nx, ell, k);
      Matrix gd_kl = pcyclic::dense_block(gd, nx, k, ell);
      Matrix gu_lk = pcyclic::dense_block(gu, nx, ell, k);
      for (index_t j = 0; j < nx; ++j)
        for (index_t i = 0; i < nx; ++i)
          ref[static_cast<std::size_t>(
              model.lattice().distance_class(i, j))] +=
              gu_kl(i, j) * gd_lk(j, i) + gd_kl(i, j) * gu_lk(j, i);
    }
    for (index_t d = 0; d < dmax; ++d) {
      const double expected =
          ref[static_cast<std::size_t>(d)] /
          (2.0 * static_cast<double>(selected.size()) *
           static_cast<double>(sizes[static_cast<std::size_t>(d)]));
      EXPECT_NEAR(meas.spxx(tau, d), expected, 1e-9)
          << "tau=" << tau << " d=" << d;
    }
  }
}

TEST(Spxx, BlockKernelReadsStridedPanelViews) {
  // spxx_block on N x N blocks of bN-wide panels (ld = bN, as the fused
  // batch walk passes them) against the definition on compact copies.
  const Lattice lat = Lattice::rectangle(3, 2);
  const index_t n = lat.num_sites(), b = 3;
  const index_t dmax = lat.num_distance_classes();
  util::Rng rng(705);
  Matrix rows_up = fsi::testing::random_matrix(b * n, n, rng);
  Matrix rows_dn = fsi::testing::random_matrix(b * n, n, rng);
  Matrix cols_up = fsi::testing::random_matrix(n, b * n, rng);
  Matrix cols_dn = fsi::testing::random_matrix(n, b * n, rng);
  for (index_t j = 0; j < b; ++j) {
    const dense::ConstMatrixView gu_kl = rows_up.block(j * n, 0, n, n);
    const dense::ConstMatrixView gd_kl = rows_dn.block(j * n, 0, n, n);
    const dense::ConstMatrixView gu_lk = cols_up.block(0, j * n, n, n);
    const dense::ConstMatrixView gd_lk = cols_dn.block(0, j * n, n, n);
    std::vector<double> got(static_cast<std::size_t>(dmax), -1.0);
    spxx_block(lat, gu_kl, gd_lk, gd_kl, gu_lk, got.data());
    std::vector<double> compact(static_cast<std::size_t>(dmax), -1.0);
    spxx_block(lat, Matrix::copy_of(gu_kl), Matrix::copy_of(gd_lk),
               Matrix::copy_of(gd_kl), Matrix::copy_of(gu_lk), compact.data());
    std::vector<double> ref(static_cast<std::size_t>(dmax), 0.0);
    for (index_t jj = 0; jj < n; ++jj)
      for (index_t i = 0; i < n; ++i)
        ref[static_cast<std::size_t>(lat.distance_class(i, jj))] +=
            gu_kl(i, jj) * gd_lk(jj, i) + gd_kl(i, jj) * gu_lk(jj, i);
    for (index_t d = 0; d < dmax; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      EXPECT_EQ(got[sd], compact[sd]) << "j=" << j << " d=" << d;
      EXPECT_NEAR(got[sd], ref[sd], 1e-13) << "j=" << j << " d=" << d;
    }
  }
}

TEST(PairSusceptibility, BlockKernelMatchesLongDoubleSum) {
  // pair_block's four partial sums against a naive long-double sum, on
  // row counts with and without a remainder mod 4, read through strided
  // panel views (ld = bN) and through compact copies (same bits).
  util::Rng rng(706);
  for (const index_t n : {1, 3, 4, 6, 9, 16}) {
    const index_t b = 3;
    Matrix up = fsi::testing::random_matrix(b * n, n, rng);
    Matrix dn = fsi::testing::random_matrix(b * n, n, rng);
    for (index_t j = 0; j < b; ++j) {
      const dense::ConstMatrixView gu = up.block(j * n, 0, n, n);
      const dense::ConstMatrixView gd = dn.block(j * n, 0, n, n);
      const double got = pair_block(gu, gd);
      EXPECT_EQ(got, pair_block(Matrix::copy_of(gu), Matrix::copy_of(gd)));
      long double ref = 0.0L;
      for (index_t jj = 0; jj < n; ++jj)
        for (index_t i = 0; i < n; ++i)
          ref += static_cast<long double>(gu(i, jj)) *
                 static_cast<long double>(gd(i, jj));
      EXPECT_LE(std::fabs(static_cast<long double>(got) - ref),
                1e-13L * std::fabs(ref))
          << "n=" << n << " j=" << j;
    }
  }
}

TEST(Spxx, MismatchedPatternsThrow) {
  const index_t nx = 2, l = 4;
  HubbardParams p;
  p.l = l;
  HubbardModel model(Lattice::chain(nx), p);
  util::Rng rng(704);
  HsField h(l, nx, rng);
  Blocks up = fsi_blocks(model, h, Spin::Up, 2, 0);
  Blocks dn = fsi_blocks(model, h, Spin::Down, 2, 1);  // different q!
  Measurements meas(l, model.lattice().num_distance_classes());
  EXPECT_THROW(accumulate_spxx(model.lattice(), up.rows, up.cols, dn.rows,
                               dn.cols, 1.0, meas),
               util::CheckError);
  EXPECT_THROW(accumulate_spxx(model.lattice(), up.cols, up.rows, dn.rows,
                               dn.cols, 1.0, meas),
               util::CheckError);
}

}  // namespace

/// Tests for the FSI algorithm: CLS structure preservation, the seed
/// identity (Eq. 8), wrapping for all four patterns, and the end-to-end
/// correctness validation of the paper's Sec. V-A (scaled down).

#include <gtest/gtest.h>

#include <tuple>

#include "fsi/dense/norms.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/selinv/fsi.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::selinv;
using dense::Matrix;
using fsi::testing::expect_close;
using pcyclic::PCyclicMatrix;
using pcyclic::Selection;

TEST(Cls, ClusterProductsMatchManualChains) {
  util::Rng rng(401);
  const index_t n = 4, l = 12, c = 3;
  PCyclicMatrix m = PCyclicMatrix::random(n, l, rng);
  for (index_t q = 0; q < c; ++q) {
    PCyclicMatrix reduced = cluster(m, c, q);
    ASSERT_EQ(reduced.num_blocks(), l / c);
    for (index_t i = 0; i < l / c; ++i) {
      // B~_i = B[j0] ... B[j0-c+1], j0 = c(i+1)-q-1.
      const index_t j0 = c * (i + 1) - q - 1;
      Matrix manual = Matrix::identity(n);
      for (index_t t = 0; t < c; ++t)
        manual = dense::matmul(Matrix::copy_of(m.b(m.wrap(j0 - c + 1 + t))), manual);
      expect_close(Matrix::copy_of(reduced.b(i)), manual, 1e-13, "cluster");
    }
  }
}

TEST(Cls, SeedIdentityEq8) {
  // G~_{k0,l0} = G_{c k0 - q, c l0 - q} (paper Eq. 8; 0-based shift).
  util::Rng rng(402);
  const index_t n = 3, l = 12, c = 4, q = 2;
  PCyclicMatrix m = PCyclicMatrix::random(n, l, rng);
  Matrix g_full = pcyclic::full_inverse_dense(m);

  PCyclicMatrix reduced = cluster(m, c, q);
  Matrix g_tilde = bsofi::invert(reduced);

  Selection sel(l, c, q);
  const auto idx = sel.indices();
  const index_t b = sel.b();
  for (index_t k0 = 0; k0 < b; ++k0)
    for (index_t l0 = 0; l0 < b; ++l0) {
      Matrix seed = Matrix::copy_of(g_tilde.block(k0 * n, l0 * n, n, n));
      Matrix truth = pcyclic::dense_block(g_full, n, idx[k0], idx[l0]);
      expect_close(seed, truth, 1e-9, "seed identity");
    }
}

TEST(Cls, InvalidParametersThrow) {
  util::Rng rng(403);
  PCyclicMatrix m = PCyclicMatrix::random(2, 10, rng);
  EXPECT_THROW(cluster(m, 3, 0), util::CheckError);   // 3 does not divide 10
  EXPECT_THROW(cluster(m, 5, 5), util::CheckError);   // q out of range
}

TEST(Cls, CEqualsOneIsIdentityReduction) {
  util::Rng rng(404);
  PCyclicMatrix m = PCyclicMatrix::random(3, 5, rng);
  PCyclicMatrix r = cluster(m, 1, 0);
  ASSERT_EQ(r.num_blocks(), 5);
  for (index_t i = 0; i < 5; ++i)
    expect_close(Matrix::copy_of(r.b(i)), Matrix::copy_of(m.b(i)), 0.0, "c=1");
}

TEST(Cls, CEqualsLReducesToSingleBlock) {
  util::Rng rng(405);
  const index_t n = 3, l = 6;
  PCyclicMatrix m = PCyclicMatrix::random(n, l, rng);
  PCyclicMatrix r = cluster(m, l, 0);
  ASSERT_EQ(r.num_blocks(), 1);
  // Single cluster = full chain B_{L-1}...B_0; (I + chain)^-1 must match
  // the (L-1, L-1)... actually the single-block reduced matrix must invert
  // to the G block at the selected index L-1.
  Matrix g_tilde = bsofi::invert(r);
  Matrix g_full = pcyclic::full_inverse_dense(m);
  expect_close(g_tilde, pcyclic::dense_block(g_full, n, l - 1, l - 1), 1e-9,
               "c=L seed");
}

// ---------------------------------------------------------------------------

using FsiParam = std::tuple<index_t /*N*/, index_t /*L*/, index_t /*c*/,
                            index_t /*q*/, pcyclic::Pattern>;

class FsiAllPatterns : public ::testing::TestWithParam<FsiParam> {};

TEST_P(FsiAllPatterns, MatchesDenseInverseOnEverySelectedBlock) {
  const auto [n, l, c, q, pattern] = GetParam();
  util::Rng rng(406, static_cast<std::uint64_t>(n * 1000 + l * 10 + c));
  PCyclicMatrix m = PCyclicMatrix::random(n, l, rng);
  Matrix g_full = pcyclic::full_inverse_dense(m);

  FsiOptions opts;
  opts.c = c;
  opts.q = q;
  opts.pattern = pattern;
  FsiStats stats;
  auto s = selinv::fsi(m, opts, rng, &stats);

  EXPECT_EQ(stats.q, q);
  EXPECT_GT(s.size(), 0);
  for (const auto& [k, col] : s.keys()) {
    expect_close(s.at(k, col), pcyclic::dense_block(g_full, n, k, col), 1e-8,
                 ("FSI block (" + std::to_string(k) + "," +
                  std::to_string(col) + ")").c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FsiAllPatterns,
    ::testing::Combine(::testing::Values(index_t{3}, index_t{9}),
                       ::testing::Values(index_t{8}, index_t{12}),
                       ::testing::Values(index_t{2}, index_t{4}),
                       ::testing::Values(index_t{0}, index_t{1}),
                       ::testing::Values(pcyclic::Pattern::Diagonal,
                                         pcyclic::Pattern::SubDiagonal,
                                         pcyclic::Pattern::Columns,
                                         pcyclic::Pattern::Rows,
                                         pcyclic::Pattern::AllDiagonals)),
    [](const auto& info) {
      const auto& t = info.param;
      const std::string pname(pcyclic::pattern_name(std::get<4>(t)));
      return "N" + std::to_string(std::get<0>(t)) + "L" +
             std::to_string(std::get<1>(t)) + "c" +
             std::to_string(std::get<2>(t)) + "q" +
             std::to_string(std::get<3>(t)) + pname.substr(0, 2);
    });

// ---------------------------------------------------------------------------
// Panel walks: WRP walks each block row (Columns) or block column (Rows) of
// the reduced inverse as one panel.

TEST(WrapPanel, MatchesDenseInverseForEveryQAndClusterSize) {
  // c in {1, 2, 5, L}: c = 1 stores the seeds only, c = L leaves b = 1 (a
  // one-block panel walking the whole line).  Every Columns/Rows panel
  // starts on the diagonal block G(pos, pos), and across q the walks cross
  // the k = 0 / L-1 (Columns) and l = 0 / L-1 (Rows) wraps.
  const index_t n = 3, l = 10;
  util::Rng rng(411);
  PCyclicMatrix m = PCyclicMatrix::random(n, l, rng);
  const Matrix g_full = pcyclic::full_inverse_dense(m);
  const pcyclic::BlockOps ops(m);
  bool crossed_wrap = false;
  for (index_t c : {index_t{1}, index_t{2}, index_t{5}, l}) {
    for (index_t q = 0; q < c; ++q) {
      const Selection sel(l, c, q);
      PCyclicMatrix reduced = cluster(m, c, q);
      const Matrix gtilde = bsofi::invert(reduced);
      for (const index_t pos : sel.indices())
        crossed_wrap |= pos - (c - 1) / 2 < 0 || pos + c / 2 > l - 1;
      for (auto pattern : {pcyclic::Pattern::Columns, pcyclic::Pattern::Rows,
                           pcyclic::Pattern::AllDiagonals}) {
        SCOPED_TRACE("c=" + std::to_string(c) + " q=" + std::to_string(q) +
                     " " + pcyclic::pattern_name(pattern));
        const auto s = wrap(ops, gtilde, pattern, sel);
        ASSERT_EQ(s.size(), sel.block_count(pattern));
        for (const auto& [k, col] : s.keys())
          expect_close(s.at(k, col), pcyclic::dense_block(g_full, n, k, col),
                       1e-9, "panel walk block");
      }
    }
  }
  EXPECT_TRUE(crossed_wrap);
}

TEST(Fsi, RandomQIsDrawnFromRng) {
  util::Rng rng(407);
  PCyclicMatrix m = PCyclicMatrix::random(2, 12, rng);
  FsiOptions opts;
  opts.c = 4;
  opts.q = -1;
  opts.pattern = pcyclic::Pattern::Diagonal;
  bool saw_different = false;
  index_t first_q = -1;
  for (int rep = 0; rep < 16; ++rep) {
    FsiStats stats;
    auto s = selinv::fsi(m, opts, rng, &stats);
    EXPECT_GE(stats.q, 0);
    EXPECT_LT(stats.q, 4);
    if (first_q < 0) first_q = stats.q;
    if (stats.q != first_q) saw_different = true;
  }
  EXPECT_TRUE(saw_different) << "q should be randomised across calls";
}

TEST(Fsi, StatsAccountAllStages) {
  util::Rng rng(408);
  PCyclicMatrix m = PCyclicMatrix::random(16, 12, rng);
  FsiOptions opts;
  opts.c = 4;
  opts.q = 1;
  opts.pattern = pcyclic::Pattern::Columns;
  FsiStats stats;
  auto s = selinv::fsi(m, opts, rng, &stats);
  EXPECT_GT(stats.flops_cls, 0u);
  EXPECT_GT(stats.flops_bsofi, 0u);
  EXPECT_GT(stats.flops_wrap, 0u);
  EXPECT_EQ(stats.flops_total(),
            stats.flops_cls + stats.flops_bsofi + stats.flops_wrap);
  EXPECT_GE(stats.seconds_total(), 0.0);
}

TEST(Fsi, ReusedBlockOpsGiveSameResult) {
  util::Rng rng(409);
  PCyclicMatrix m = PCyclicMatrix::random(4, 8, rng);
  pcyclic::BlockOps ops(m);
  FsiOptions opts;
  opts.c = 2;
  opts.q = 1;
  opts.pattern = pcyclic::Pattern::Columns;
  auto s1 = selinv::fsi(m, ops, opts, rng);
  auto s2 = selinv::fsi(m, opts, rng);
  for (const auto& [k, col] : s1.keys())
    expect_close(s1.at(k, col), s2.at(k, col), 0.0, "BlockOps reuse");
}

TEST(Fsi, MismatchedBlockOpsThrow) {
  util::Rng rng(410);
  PCyclicMatrix m1 = PCyclicMatrix::random(3, 4, rng);
  PCyclicMatrix m2 = PCyclicMatrix::random(3, 4, rng);
  pcyclic::BlockOps ops(m2);
  FsiOptions opts;
  opts.c = 2;
  opts.q = 0;
  EXPECT_THROW(selinv::fsi(m1, ops, opts, rng), util::CheckError);
}

TEST(ComplexityModel, MatchesPaperTable) {
  // (N, L, c) = (1, 100, 10): b = 10.
  ComplexityModel cm{1, 100, 10};
  EXPECT_DOUBLE_EQ(cm.fsi_flops(pcyclic::Pattern::Diagonal),
                   (2.0 * 9 + 7.0 * 10) * 10);           // [2(c-1)+7b] b N^3
  EXPECT_DOUBLE_EQ(cm.fsi_flops(pcyclic::Pattern::Columns), 3.0 * 100 * 10);
  EXPECT_DOUBLE_EQ(cm.explicit_flops(pcyclic::Pattern::Columns),
                   1000.0 * 100);                        // b^3 c^2 N^3
  // FSI speedup for b columns is ~ bc/3 (paper Sec. II-C).
  EXPECT_NEAR(cm.explicit_flops(pcyclic::Pattern::Columns) /
                  cm.fsi_flops(pcyclic::Pattern::Columns),
              10.0 * 10 / 3.0, 1e-12);
}

}  // namespace

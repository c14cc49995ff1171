/// Tests for the multi-pattern FSI driver.

#include <gtest/gtest.h>

#include "fsi/selinv/fsi.hpp"

namespace {

using namespace fsi;
using dense::index_t;
using dense::Matrix;
using pcyclic::PCyclicMatrix;

TEST(FsiMulti, MatchesSinglePatternRuns) {
  util::Rng rng(91);
  PCyclicMatrix m = PCyclicMatrix::random(5, 12, rng);
  pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = 4;
  opts.q = 2;

  const std::vector<pcyclic::Pattern> patterns{
      pcyclic::Pattern::AllDiagonals, pcyclic::Pattern::Rows,
      pcyclic::Pattern::Columns, pcyclic::Pattern::SubDiagonal};
  selinv::FsiStats stats;
  auto multi = selinv::fsi_multi(m, ops, patterns, opts, rng, &stats);
  ASSERT_EQ(multi.size(), patterns.size());
  EXPECT_EQ(stats.q, 2);

  // Every block bit for bit: the shared CLS + BSOFI run the same kernels.
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    selinv::FsiOptions single = opts;
    single.pattern = patterns[p];
    auto ref = selinv::fsi(m, ops, single, rng);
    ASSERT_EQ(multi[p].size(), ref.size());
    for (const auto& [k, col] : ref.keys()) {
      const Matrix& got = multi[p].at(k, col);
      const Matrix& want = ref.at(k, col);
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.cols(), want.cols());
      for (index_t j = 0; j < want.cols(); ++j)
        for (index_t i = 0; i < want.rows(); ++i)
          ASSERT_EQ(got(i, j), want(i, j))
              << pcyclic::pattern_name(patterns[p]) << " block (" << k << ", "
              << col << ") entry (" << i << ", " << j << ")";
    }
  }
}

TEST(FsiMulti, SharedReductionCostsOneClsAndBsofi) {
  util::Rng rng(92);
  PCyclicMatrix m = PCyclicMatrix::random(8, 12, rng);
  pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = 3;
  opts.q = 0;

  selinv::FsiStats one, three;
  (void)selinv::fsi_multi(m, ops, {pcyclic::Pattern::Diagonal}, opts, rng, &one);
  (void)selinv::fsi_multi(m, ops,
                          {pcyclic::Pattern::Diagonal, pcyclic::Pattern::Rows,
                           pcyclic::Pattern::Columns},
                          opts, rng, &three);
  // CLS and BSOFI flops must be identical — they are shared, not repeated.
  EXPECT_EQ(one.flops_cls, three.flops_cls);
  EXPECT_EQ(one.flops_bsofi, three.flops_bsofi);
  EXPECT_GT(three.flops_wrap, one.flops_wrap);
}

TEST(FsiMulti, EmptyPatternListThrows) {
  util::Rng rng(93);
  PCyclicMatrix m = PCyclicMatrix::random(3, 4, rng);
  pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = 2;
  EXPECT_THROW(selinv::fsi_multi(m, ops, {}, opts, rng), util::CheckError);
}

}  // namespace

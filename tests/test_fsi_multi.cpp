/// Tests for the multi-pattern FSI driver and the partial-BSOFI
/// equal-time-block helper.

#include <gtest/gtest.h>

#include "fsi/dense/norms.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/selinv/fsi.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using dense::index_t;
using dense::Matrix;
using fsi::testing::expect_close;
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

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    selinv::FsiOptions single = opts;
    single.pattern = patterns[p];
    auto ref = selinv::fsi(m, ops, single, opts.q >= 0 ? rng : rng);
    ASSERT_EQ(multi[p].size(), ref.size());
    for (const auto& [k, col] : ref.keys())
      expect_close(multi[p].at(k, col), ref.at(k, col), 0.0,
                   pcyclic::pattern_name(patterns[p]));
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

TEST(EqualTimeBlock, MatchesDenseInverseForEveryKAndC) {
  util::Rng rng(94);
  const index_t n = 4, l = 12;
  PCyclicMatrix m = PCyclicMatrix::random(n, l, rng);
  Matrix g = pcyclic::full_inverse_dense(m);
  for (index_t c : {index_t{2}, index_t{3}, index_t{4}, index_t{6}}) {
    for (index_t k = 0; k < l; ++k) {
      Matrix blk = selinv::equal_time_block(m, k, c);
      expect_close(blk, pcyclic::dense_block(g, n, k, k), 1e-9,
                   ("k=" + std::to_string(k) + " c=" + std::to_string(c))
                       .c_str());
    }
  }
}

TEST(EqualTimeBlock, InvalidArgumentsThrow) {
  util::Rng rng(95);
  PCyclicMatrix m = PCyclicMatrix::random(3, 8, rng);
  EXPECT_THROW(selinv::equal_time_block(m, 8, 2), util::CheckError);
  EXPECT_THROW(selinv::equal_time_block(m, 0, 3), util::CheckError);  // 3 ∤ 8
}

}  // namespace

/// Mixed-precision pipeline tests: the fp32 building blocks against their
/// fp64 twins (BlockOpsF moves, cluster products), the health gate's
/// accept/fallback behaviour, end-to-end mixed-vs-fp64 accuracy through
/// both the single-call driver and the batched graph engine, and the
/// precision plumbing helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fsi/bsofi/bsofi.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "fsi/precision.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/util/check.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using dense::index_t;
using dense::Matrix;
using dense::MatrixF;
using fsi::testing::expect_close;

/// Restore the process-wide mixed gate on scope exit (tests below lower it
/// to force fallbacks).
struct GateGuard {
  selinv::MixedGate saved = selinv::mixed_gate();
  ~GateGuard() { selinv::set_mixed_gate(saved); }
};

/// |fp32 result - fp64 twin| within float round-off for O(1) blocks.
constexpr double kFloatTol = 1e-4;

pcyclic::PCyclicMatrix hubbard_matrix(index_t n, index_t l, double u,
                                      double beta, std::uint64_t seed) {
  qmc::HubbardParams p;
  p.u = u;
  p.beta = beta;
  p.l = l;
  qmc::HubbardModel model(qmc::Lattice::chain(n), p);
  util::Rng rng(seed);
  qmc::HsField field(l, n, rng);
  return model.build_m(field, qmc::Spin::Up);
}

// ---- fp32 building blocks vs their fp64 twins ----------------------------

TEST(BlockOpsF, EveryMoveMatchesFp64TwinAtEveryPosition) {
  // All four moves at every (k, l) — covers the twelve boundary cases
  // (diagonal / first / last row / column / corners) the fp64 BlockOps
  // implements, promised in adjacency.cpp to stay in lockstep.
  const index_t n = 4, l = 6;
  util::Rng rng(0xAD);
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(n, l, rng);
  const pcyclic::BlockOps ops(m);
  const pcyclic::BlockOpsF ops_f(m);

  for (index_t k = 0; k < l; ++k) {
    for (index_t col = 0; col < l; ++col) {
      // A reproducible O(1) "current block" to move from.
      util::Rng grng(static_cast<std::uint64_t>(k * 100 + col));
      Matrix g = fsi::testing::random_matrix(n, n, grng);
      MatrixF g_f = dense::demoted(g.view());

      SCOPED_TRACE("k=" + std::to_string(k) + " l=" + std::to_string(col));
      expect_close(dense::promoted(ops_f.up(k, col, g_f).view()),
                   ops.up(k, col, g), kFloatTol, "up");
      expect_close(dense::promoted(ops_f.down(k, col, g_f).view()),
                   ops.down(k, col, g), kFloatTol, "down");
      expect_close(dense::promoted(ops_f.left(k, col, g_f).view()),
                   ops.left(k, col, g), kFloatTol, "left");
      expect_close(dense::promoted(ops_f.right(k, col, g_f).view()),
                   ops.right(k, col, g), kFloatTol, "right");
    }
  }
}

TEST(WrapPanelF, EveryPatternMatchesFp64Walk) {
  // The one walk template at both scalars: fp32 panels from the demoted
  // reduced inverse against the fp64 walk from the same reduced inverse.
  const index_t n = 6, l = 12, c = 4, q = 2;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xC3);
  const pcyclic::Selection sel(l, c, q);
  const pcyclic::BlockOps ops(m);
  const pcyclic::BlockOpsF ops_f(m);
  const Matrix gtilde = bsofi::invert(selinv::cluster(m, c, q));
  const MatrixF gtilde_f = dense::demoted(gtilde.view());
  for (auto pattern :
       {pcyclic::Pattern::Diagonal, pcyclic::Pattern::SubDiagonal,
        pcyclic::Pattern::Columns, pcyclic::Pattern::Rows,
        pcyclic::Pattern::AllDiagonals}) {
    SCOPED_TRACE(pcyclic::pattern_name(pattern));
    const auto s64 = selinv::wrap(ops, gtilde, pattern, sel);
    const auto s32 = selinv::wrap(ops_f, gtilde_f, pattern, sel);
    ASSERT_EQ(s32.size(), s64.size());
    for (const auto& [k, col] : s64.keys())
      expect_close(s32.at(k, col), s64.at(k, col), kFloatTol, "fp32 walk");
  }
}

TEST(ClusterMixed, ProductsAndReducedMatrixMatchFp64) {
  const index_t n = 6, l = 12, c = 3, q = 1;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xC1);

  const index_t b = l / c;
  for (index_t i = 0; i < b; ++i) {
    MatrixF prod_f = selinv::cluster_product_f(m, c, q, i);
    Matrix prod = selinv::cluster_product(m, c, q, i);
    expect_close(dense::promoted(prod_f.view()), prod, kFloatTol,
                 "cluster product");
  }

  pcyclic::PCyclicMatrix red_mixed = selinv::cluster_mixed(m, c, q);
  pcyclic::PCyclicMatrix red = selinv::cluster(m, c, q);
  ASSERT_EQ(red_mixed.num_blocks(), red.num_blocks());
  for (index_t i = 0; i < red.num_blocks(); ++i)
    expect_close(red_mixed.b(i), red.b(i), kFloatTol, "reduced block");
}

TEST(MixedGateHelpers, Cond1AndResidualProbeAreSane) {
  const index_t n = 4, l = 8, c = 2, q = 0;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xC2);
  const pcyclic::Selection sel(l, c, q);

  pcyclic::PCyclicMatrix reduced = selinv::cluster(m, c, q);
  Matrix gtilde = bsofi::invert(reduced);
  const double cond1 = selinv::reduced_cond1(reduced, gtilde);
  EXPECT_GT(cond1, 1.0);  // it is an upper bound on kappa_1 >= 1

  const pcyclic::BlockOps ops(m);
  auto cols = selinv::wrap(ops, gtilde, pcyclic::Pattern::Columns, sel);
  const double r =
      selinv::probe_residual(m, cols, pcyclic::Pattern::Columns, sel);
  EXPECT_GE(r, 0.0);
  EXPECT_LE(r, 1e-10);  // fp64 wrap: residual at round-off level

  // Patterns that store no adjacent blocks cannot be probed.
  auto diag = selinv::wrap(ops, gtilde, pcyclic::Pattern::Diagonal, sel);
  EXPECT_LT(selinv::probe_residual(m, diag, pcyclic::Pattern::Diagonal, sel),
            0.0);
}

// ---- end-to-end: single-call driver --------------------------------------

TEST(FsiMixed, SelectedBlocksWithinToleranceOfFp64) {
  const index_t n = 6, l = 12, c = 3;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xE1);

  for (auto pattern : {pcyclic::Pattern::AllDiagonals,
                       pcyclic::Pattern::Columns, pcyclic::Pattern::Rows}) {
    selinv::FsiOptions opts;
    opts.c = c;
    opts.q = 1;
    opts.pattern = pattern;

    opts.precision = Precision::Fp64;
    util::Rng rng64(5);
    auto ref = selinv::fsi(m, opts, rng64);

    opts.precision = Precision::Mixed;
    util::Rng rng32(5);
    selinv::FsiStats stats;
    auto got = selinv::fsi(m, opts, rng32, &stats);

    SCOPED_TRACE(pcyclic::pattern_name(pattern));
    ASSERT_EQ(got.size(), ref.size());
    const double tol =
        stats.precision_used == Precision::Mixed ? 5e-3 : 1e-15;
    for (const auto& [k, col] : ref.keys())
      expect_close(got.at(k, col), ref.at(k, col), tol, "mixed block");
  }
}

TEST(FsiMixed, ForcedFallbackReturnsFp64ResultAndCounts) {
  GateGuard guard;
  const index_t n = 5, l = 8, c = 2;
  pcyclic::PCyclicMatrix m = hubbard_matrix(n, l, 2.0, 1.0, 0xE2);

  selinv::FsiOptions opts;
  opts.c = c;
  opts.q = 0;
  opts.pattern = pcyclic::Pattern::Columns;

  opts.precision = Precision::Fp64;
  util::Rng rng64(9);
  auto ref = selinv::fsi(m, opts, rng64);

  // A zero gate rejects every mixed run (cond1 >= 1 > 0 always trips).
  selinv::set_mixed_gate({0.0, 0.0});
  const auto fallbacks_before =
      obs::metrics::total(obs::metrics::Counter::MixedFallbacks);
  const auto runs_before =
      obs::metrics::total(obs::metrics::Counter::MixedRuns);

  opts.precision = Precision::Mixed;
  util::Rng rng32(9);
  selinv::FsiStats stats;
  auto got = selinv::fsi(m, opts, rng32, &stats);

  EXPECT_TRUE(stats.mixed_fallback);
  EXPECT_EQ(stats.precision_used, Precision::Fp64);
  EXPECT_EQ(obs::metrics::total(obs::metrics::Counter::MixedRuns),
            runs_before + 1);
  EXPECT_EQ(obs::metrics::total(obs::metrics::Counter::MixedFallbacks),
            fallbacks_before + 1);

  // The fallback re-runs the very same fp64 path a Precision::Fp64 call
  // takes (same pinned q), so the result is bit-identical.
  ASSERT_EQ(got.size(), ref.size());
  for (const auto& [k, col] : ref.keys())
    expect_close(got.at(k, col), ref.at(k, col), 0.0, "fallback block");
}

// ---- end-to-end: batched graph engine ------------------------------------

std::vector<qmc::FsiBatchTask> make_tasks(const qmc::HubbardModel& model,
                                          int count) {
  std::vector<qmc::FsiBatchTask> tasks;
  for (int i = 0; i < count; ++i) {
    util::Rng rng(100 + static_cast<std::uint64_t>(i));
    tasks.push_back(qmc::FsiBatchTask{
        qmc::HsField(model.params().l, model.num_sites(), rng),
        /*q=*/i % 2, /*heavy=*/true});
  }
  return tasks;
}

TEST(FsiMixedBatch, MeasurementsWithinToleranceOfFp64) {
  qmc::HubbardParams p;
  p.u = 2.0;
  p.beta = 1.0;
  p.l = 8;
  const qmc::HubbardModel model(qmc::Lattice::chain(6), p);
  const auto tasks = make_tasks(model, 2);

  qmc::FsiBatchOptions opts;
  opts.cluster_size = 2;

  opts.precision = Precision::Fp64;
  const auto ref = qmc::run_fsi_batch(model, tasks, opts);

  opts.precision = Precision::Mixed;
  qmc::SchedSummary sched;
  const auto got = qmc::run_fsi_batch(model, tasks, opts, &sched);

  EXPECT_EQ(sched.mixed_tasks, static_cast<std::uint32_t>(tasks.size()));
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t t = 0; t < ref.size(); ++t) {
    const auto r = ref[t].serialize();
    const auto g = got[t].serialize();
    ASSERT_EQ(g.size(), r.size());
    for (std::size_t i = 0; i < r.size(); ++i)
      EXPECT_NEAR(g[i], r[i], 1e-3 * (1.0 + std::abs(r[i])))
          << "task " << t << " measurement " << i;
  }
}

TEST(FsiMixedBatch, ForcedFallbackRecomputesEveryTaskInFp64) {
  GateGuard guard;
  qmc::HubbardParams p;
  p.u = 2.0;
  p.beta = 1.0;
  p.l = 8;
  const qmc::HubbardModel model(qmc::Lattice::chain(5), p);
  const auto tasks = make_tasks(model, 2);

  qmc::FsiBatchOptions opts;
  opts.cluster_size = 2;

  opts.precision = Precision::Fp64;
  const auto ref = qmc::run_fsi_batch(model, tasks, opts);

  selinv::set_mixed_gate({0.0, 0.0});
  opts.precision = Precision::Mixed;
  qmc::SchedSummary sched;
  const auto got = qmc::run_fsi_batch(model, tasks, opts, &sched);

  EXPECT_EQ(sched.mixed_tasks, static_cast<std::uint32_t>(tasks.size()));
  EXPECT_EQ(sched.mixed_fallbacks, static_cast<std::uint32_t>(tasks.size()));

  // The gate's recompute is the fp64 pipeline on the same task inputs, so
  // the measurements must agree with a pure-fp64 batch to fp64 round-off.
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t t = 0; t < ref.size(); ++t) {
    const auto r = ref[t].serialize();
    const auto g = got[t].serialize();
    ASSERT_EQ(g.size(), r.size());
    for (std::size_t i = 0; i < r.size(); ++i)
      EXPECT_NEAR(g[i], r[i], 1e-12 * (1.0 + std::abs(r[i])))
          << "task " << t << " measurement " << i;
  }
}

// ---- precision plumbing helpers ------------------------------------------

TEST(PrecisionHelpers, ParseNamesAndWireCodes) {
  Precision p = Precision::Fp64;
  EXPECT_TRUE(parse_precision("mixed", p));
  EXPECT_EQ(p, Precision::Mixed);
  EXPECT_TRUE(parse_precision("fp32", p));
  EXPECT_EQ(p, Precision::Mixed);
  EXPECT_TRUE(parse_precision("fp64", p));
  EXPECT_EQ(p, Precision::Fp64);
  EXPECT_TRUE(parse_precision("double", p));
  EXPECT_EQ(p, Precision::Fp64);
  EXPECT_FALSE(parse_precision("fp16", p));

  EXPECT_STREQ(precision_name(Precision::Fp64), "fp64");
  EXPECT_STREQ(precision_name(Precision::Mixed), "mixed");

  Precision q = Precision::Fp64;
  EXPECT_TRUE(precision_from_u32(1, q));
  EXPECT_EQ(q, Precision::Mixed);
  EXPECT_TRUE(precision_from_u32(0, q));
  EXPECT_EQ(q, Precision::Fp64);
  EXPECT_FALSE(precision_from_u32(7, q));
}

TEST(PrecisionHelpers, EnvValueFailsLoudOnGarbage) {
  // Unset / empty keep the fp64 default...
  EXPECT_EQ(precision_from_env_value(nullptr), Precision::Fp64);
  EXPECT_EQ(precision_from_env_value(""), Precision::Fp64);
  EXPECT_EQ(precision_from_env_value("MIXED"), Precision::Mixed);
  EXPECT_EQ(precision_from_env_value("double"), Precision::Fp64);
  // ...but a typo must throw, not silently run the whole job in fp64.
  EXPECT_THROW(precision_from_env_value("fp16"), util::CheckError);
  try {
    precision_from_env_value("fast");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fast"), std::string::npos);
    EXPECT_NE(what.find("mixed"), std::string::npos);
  }
}

}  // namespace

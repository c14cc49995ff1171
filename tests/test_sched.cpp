// Tests of the fsi::sched task deque and workspace pool, and of the
// determinism + pool-reuse guarantees of the task-graph batch engine
// (run_fsi_batch and run_parallel_fsi) against a serial reference.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fsi/qmc/multi_gf.hpp"
#include "fsi/sched/task_queue.hpp"
#include "fsi/sched/workspace_pool.hpp"
#include "fsi/selinv/fsi.hpp"

namespace {

using namespace fsi;

// ---------------------------------------------------------------------------
// TaskDeque

TEST(TaskDeque, OwnerPopsInFifoOrder) {
  sched::TaskDeque q;
  for (std::uint32_t t = 0; t < 5; ++t) q.push(t);
  EXPECT_EQ(q.size(), 5u);
  std::uint32_t task = 0;
  for (std::uint32_t t = 0; t < 5; ++t) {
    ASSERT_TRUE(q.pop(task));
    EXPECT_EQ(task, t);
  }
  EXPECT_FALSE(q.pop(task));
}

TEST(TaskDeque, StealHalfTakesBackHalfInOrder) {
  sched::TaskDeque q;
  for (std::uint32_t t = 0; t < 6; ++t) q.push(t);
  std::vector<std::uint32_t> loot;
  EXPECT_EQ(q.steal_half(loot), 3u);
  EXPECT_EQ(loot, (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_EQ(q.size(), 3u);
  // Odd size: the thief rounds up.
  loot.clear();
  EXPECT_EQ(q.steal_half(loot), 2u);
  EXPECT_EQ(loot, (std::vector<std::uint32_t>{1, 2}));
  // Empty deque yields nothing.
  loot.clear();
  std::uint32_t task = 0;
  ASSERT_TRUE(q.pop(task));
  EXPECT_EQ(q.steal_half(loot), 0u);
  EXPECT_TRUE(loot.empty());
}

// ---------------------------------------------------------------------------
// WorkspacePool (local instances — the global pool is exercised end-to-end
// by the MultiGfSched tests below)

TEST(WorkspacePool, RecycledStorageIsReusedAndZeroed) {
  sched::WorkspacePool pool(true, 64 << 20);
  dense::Matrix a = pool.acquire(4, 6);
  a(1, 2) = 42.0;
  const double* ptr = a.data();
  pool.recycle(std::move(a));
  EXPECT_EQ(pool.cached_buffers(), 1u);
  // Same element count (different shape) reuses the buffer, zeroed.
  dense::Matrix b = pool.acquire(6, 4);
  EXPECT_EQ(b.data(), ptr);
  for (dense::index_t j = 0; j < 4; ++j)
    for (dense::index_t i = 0; i < 6; ++i) EXPECT_EQ(b(i, j), 0.0);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 0.5);
}

TEST(WorkspacePool, AcquireCopyMatchesSource) {
  sched::WorkspacePool pool(true, 64 << 20);
  dense::Matrix src(3, 3);
  for (dense::index_t j = 0; j < 3; ++j)
    for (dense::index_t i = 0; i < 3; ++i) src(i, j) = 10.0 * i + j;
  dense::Matrix copy = pool.acquire_copy(src.view());
  for (dense::index_t j = 0; j < 3; ++j)
    for (dense::index_t i = 0; i < 3; ++i) EXPECT_EQ(copy(i, j), src(i, j));
}

TEST(WorkspacePool, ByteCapDropsExcessBuffers) {
  // Cap small enough that a second cached buffer of this size exceeds the
  // per-shard budget (identical counts land in the same shard).
  sched::WorkspacePool pool(true, 8 * 100 * sizeof(double));
  pool.recycle(pool.acquire(10, 10));
  pool.recycle(pool.acquire(10, 10));
  pool.recycle(pool.acquire(10, 10));
  EXPECT_LE(pool.cached_bytes(), 8 * 100 * sizeof(double));
  pool.clear();
  EXPECT_EQ(pool.cached_bytes(), 0u);
  EXPECT_EQ(pool.cached_buffers(), 0u);
}

TEST(WorkspacePool, DisabledPoolNeverCaches) {
  sched::WorkspacePool pool(false, 64 << 20);
  dense::Matrix a = pool.acquire(4, 4);
  pool.recycle(std::move(a));
  EXPECT_EQ(pool.cached_buffers(), 0u);
  dense::Matrix b = pool.acquire(4, 4);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(WorkspacePool, RecyclingEmptyMatrixIsANoOp) {
  sched::WorkspacePool pool(true, 64 << 20);
  pool.recycle(dense::Matrix());
  EXPECT_EQ(pool.cached_buffers(), 0u);
}

// ---------------------------------------------------------------------------
// run_parallel_fsi / run_fsi_batch: determinism + pool reuse

qmc::MultiGfOptions batch_options(int ranks, int threads) {
  qmc::MultiGfOptions opt;
  opt.num_matrices = 5;  // deliberately indivisible by every rank count used
  opt.num_ranks = ranks;
  opt.omp_threads_per_rank = threads;
  opt.cluster_size = 2;
  opt.seed = 321;
  return opt;
}

/// The serial reference of one batch task: selinv::fsi_multi on the serial
/// pure-kernel pipeline (coarse_parallel = false) per spin, then the serial
/// measurement accumulators (equal-time, SPXX, pair susceptibility) whose
/// sums the batch engine produces and reduces in the same order.
qmc::Measurements serial_reference_task(const qmc::HubbardModel& model,
                                        const qmc::FsiBatchTask& task,
                                        dense::index_t c) {
  qmc::Measurements meas(model.params().l,
                         model.lattice().num_distance_classes());
  meas.add_sample(1.0);
  selinv::FsiOptions opts;
  opts.c = c;
  opts.q = task.q;
  opts.coarse_parallel = false;
  opts.precision = Precision::Fp64;
  std::vector<pcyclic::Pattern> patterns{pcyclic::Pattern::AllDiagonals};
  if (task.heavy) {
    patterns.push_back(pcyclic::Pattern::Rows);
    patterns.push_back(pcyclic::Pattern::Columns);
  }
  util::Rng unused(0);  // q is fixed
  std::vector<pcyclic::SelectedInversion> spin[2];
  for (const qmc::Spin s : {qmc::Spin::Up, qmc::Spin::Down}) {
    const pcyclic::PCyclicMatrix m = model.build_m(task.field, s);
    const pcyclic::BlockOps ops(m);
    spin[s == qmc::Spin::Up ? 0 : 1] =
        selinv::fsi_multi(m, ops, patterns, opts, unused);
  }
  const auto& up = spin[0];
  const auto& dn = spin[1];
  qmc::accumulate_equal_time(model.lattice(), up[0], dn[0], model.params().t,
                             1.0, false, meas);
  if (task.heavy) {
    qmc::accumulate_spxx(model.lattice(), up[1], up[2], dn[1], dn[2], 1.0,
                         meas);
    qmc::accumulate_pair_susceptibility(model.lattice(), up[1], dn[1],
                                        model.params().dtau(), 1.0, meas);
  }
  return meas;
}

/// The tasks run_parallel_fsi derives from its options: every field from
/// one stream seeded by opt.seed, each q from (seed, task index), the
/// leading ceil(heavy_fraction * m) tasks heavy.
std::vector<qmc::FsiBatchTask> parallel_fsi_tasks(
    const qmc::HubbardModel& model, const qmc::MultiGfOptions& opt) {
  const dense::index_t m = opt.num_matrices;
  const auto heavy = static_cast<dense::index_t>(
      std::ceil(opt.heavy_fraction * static_cast<double>(m)));
  std::vector<qmc::FsiBatchTask> tasks;
  util::Rng root(opt.seed);
  for (dense::index_t t = 0; t < m; ++t)
    tasks.push_back({qmc::HsField(model.params().l, model.num_sites(), root), 0,
                     t < heavy});
  for (dense::index_t t = 0; t < m; ++t) {
    util::Rng task_rng(opt.seed, static_cast<std::uint64_t>(t) + 1);
    tasks[static_cast<std::size_t>(t)].q = static_cast<dense::index_t>(
        task_rng.below(static_cast<std::uint64_t>(opt.cluster_size)));
  }
  return tasks;
}

void expect_bit_identical(const qmc::Measurements& got,
                          const qmc::Measurements& want, const std::string& what) {
  const std::vector<double> g = got.serialize();
  const std::vector<double> w = want.serialize();
  ASSERT_EQ(g.size(), w.size()) << what;
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_EQ(g[i], w[i]) << what << " i=" << i;
}

TEST(MultiGfSched, BatchEngineBitIdenticalToSerialReference) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 3.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  const dense::index_t l = p.l;
  const dense::index_t dmax = model.lattice().num_distance_classes();

  for (const double heavy_fraction : {1.0, 0.25}) {
    qmc::MultiGfOptions opt = batch_options(1, 0);
    opt.num_matrices = 6;
    opt.heavy_fraction = heavy_fraction;
    const std::vector<qmc::FsiBatchTask> tasks = parallel_fsi_tasks(model, opt);
    std::vector<qmc::Measurements> want;
    qmc::Measurements want_global(l, dmax);
    for (const qmc::FsiBatchTask& task : tasks) {
      want.push_back(serial_reference_task(model, task, opt.cluster_size));
      want_global.merge(want.back());
    }

    for (const int workers : {1, 2, 4}) {
      const std::string cfg = "workers=" + std::to_string(workers) +
                              " heavy_fraction=" +
                              std::to_string(heavy_fraction);
      opt.num_ranks = workers;
      expect_bit_identical(run_parallel_fsi(model, opt).global, want_global,
                           "run_parallel_fsi " + cfg);

      qmc::FsiBatchOptions batch;
      batch.num_workers = workers;
      batch.cluster_size = opt.cluster_size;
      batch.precision = Precision::Fp64;
      const std::vector<qmc::Measurements> got =
          qmc::run_fsi_batch(model, tasks, batch);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t t = 0; t < want.size(); ++t)
        expect_bit_identical(got[t], want[t],
                             "run_fsi_batch " + cfg + " task=" +
                                 std::to_string(t));
    }
  }

  // Every cluster size the fused walks treat differently (c = 1: seeds
  // only; even and odd c: unequal up/down step counts; c = L: one walk
  // that meets itself across the wrap) at every offset q, so walks start
  // and end on both sides of the L-1 -> 0 wrap.
  util::Rng field_rng(77);
  for (const dense::index_t c : {dense::index_t{1}, dense::index_t{2},
                                 dense::index_t{3}, l}) {
    for (dense::index_t q = 0; q < c; ++q) {
      std::vector<qmc::FsiBatchTask> tasks;
      for (const bool heavy : {true, false, true})
        tasks.push_back({qmc::HsField(l, model.num_sites(), field_rng), q,
                         heavy});
      qmc::FsiBatchOptions batch;
      batch.num_workers = 2;
      batch.cluster_size = c;
      batch.precision = Precision::Fp64;
      const std::vector<qmc::Measurements> got =
          qmc::run_fsi_batch(model, tasks, batch);
      ASSERT_EQ(got.size(), tasks.size());
      for (std::size_t t = 0; t < tasks.size(); ++t)
        expect_bit_identical(got[t], serial_reference_task(model, tasks[t], c),
                             "c=" + std::to_string(c) + " q=" +
                                 std::to_string(q) + " task=" +
                                 std::to_string(t));
    }
  }
}

TEST(MultiGfSched, BitIdenticalAcrossRanksThreadsAndSchedules) {
  // Workers x OpenMP threads per worker (the Fig. 9 axes) and steal order
  // never change the merged result.
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 3.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);

  const auto baseline = run_parallel_fsi(model, batch_options(1, 1));
  const std::vector<double> expect = baseline.global.serialize();
  ASSERT_FALSE(expect.empty());

  const struct {
    int ranks, threads;
  } configs[] = {{3, 1}, {2, 2}, {5, 1}, {1, 2}, {4, 1}};
  for (const auto& cfg : configs) {
    const auto r = run_parallel_fsi(model, batch_options(cfg.ranks, cfg.threads));
    const std::vector<double> got = r.global.serialize();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
      EXPECT_EQ(got[i], expect[i]) << "ranks=" << cfg.ranks
                                   << " threads=" << cfg.threads << " i=" << i;
  }
}

TEST(MultiGfSched, NegativeSignNegatesEverySumButTheSampleCount) {
  // The sign is +-1, so weighting by it is exact: a task with sign -1
  // serialises to the +1 record with every sum negated except the count.
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 3.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  util::Rng rng(505);
  std::vector<qmc::FsiBatchTask> plus, minus;
  for (const bool heavy : {true, false}) {
    const qmc::HsField field(p.l, model.num_sites(), rng);
    plus.push_back({field, 1, heavy});
    minus.push_back({field, 1, heavy, -1.0});
  }
  qmc::FsiBatchOptions batch;
  batch.num_workers = 2;
  batch.cluster_size = 2;
  batch.precision = Precision::Fp64;
  const std::vector<qmc::Measurements> want =
      qmc::run_fsi_batch(model, plus, batch);
  const std::vector<qmc::Measurements> got =
      qmc::run_fsi_batch(model, minus, batch);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_NE(want[0].pair_susceptibility(), 0.0);
  EXPECT_DOUBLE_EQ(got[0].avg_sign(), -1.0);
  for (std::size_t t = 0; t < want.size(); ++t) {
    const std::vector<double> w = want[t].serialize();
    const std::vector<double> g = got[t].serialize();
    ASSERT_EQ(g.size(), w.size());
    EXPECT_EQ(g[0], 1.0) << "task " << t;  // the sample count
    EXPECT_EQ(g[0], w[0]) << "task " << t;
    for (std::size_t i = 1; i < w.size(); ++i)
      EXPECT_EQ(g[i], -w[i]) << "task " << t << " entry " << i;
  }
}

TEST(MultiGfSched, ReportsGraphTelemetry) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  const auto opt = batch_options(2, 1);

  const auto r = run_parallel_fsi(model, opt);
  EXPECT_DOUBLE_EQ(r.global.samples(), 5.0);
  EXPECT_EQ(r.sched.tasks, 5u);
  EXPECT_EQ(r.sched.workers, 2);
  // Per task and spin: 1 build + b cluster products + 1 BSOFI + panel walks,
  // plus 1 measure node per task — far more nodes than tasks.
  EXPECT_GT(r.sched.graph_nodes, 5u * 4u);
  EXPECT_GT(r.sched.critical_path_seconds, 0.0);
  EXPECT_GT(r.sched.stage_build_seconds, 0.0);
  EXPECT_GT(r.sched.stage_cls_seconds, 0.0);
  EXPECT_GT(r.sched.stage_bsofi_seconds, 0.0);
  EXPECT_GT(r.sched.stage_wrap_seconds, 0.0);
  EXPECT_GT(r.sched.stage_measure_seconds, 0.0);
  EXPECT_EQ(r.sched.busy_seconds.size(), 2u);
  EXPECT_GT(r.sched.busy_max_seconds, 0.0);
}

TEST(MultiGfSched, SecondSameShapeBatchHitsPoolWithoutFreshAllocations) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  auto opt = batch_options(1, 1);

  if (!sched::WorkspacePool::global().enabled())
    GTEST_SKIP() << "FSI_SCHED_POOL disabled in the environment";

  // Warmup batch populates the pool with every shape this workload needs.
  (void)run_parallel_fsi(model, opt);
  // A single-rank rerun replays the identical acquire sequence, so every
  // acquire must be served from the pool: zero fresh allocations.
  const auto second = run_parallel_fsi(model, opt);
  EXPECT_EQ(second.sched.pool_misses, 0u)
      << "steady-state batch should be allocation-free";
  EXPECT_GT(second.sched.pool_hits, 0u);
  EXPECT_DOUBLE_EQ(second.sched.pool_hit_rate(), 1.0);
}

TEST(MultiGfSched, MultiRankSteadyStateHitRateIsHigh) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  auto opt = batch_options(3, 1);
  opt.num_matrices = 9;

  if (!sched::WorkspacePool::global().enabled())
    GTEST_SKIP() << "FSI_SCHED_POOL disabled in the environment";

  (void)run_parallel_fsi(model, opt);
  const auto second = run_parallel_fsi(model, opt);
  EXPECT_GT(second.sched.pool_hit_rate(), 0.9)
      << "hits=" << second.sched.pool_hits
      << " misses=" << second.sched.pool_misses;
}

TEST(MultiGfSched, SkewedBatchReportsBalanceTelemetry) {
  fsi::qmc::HubbardParams p;
  p.l = 6;
  p.u = 2.0;
  const qmc::HubbardModel model(qmc::Lattice::chain(3), p);
  auto opt = batch_options(2, 1);
  opt.num_matrices = 8;
  opt.heavy_fraction = 0.25;  // heavy front chunk lands on worker 0's preload

  const auto r = run_parallel_fsi(model, opt);
  EXPECT_DOUBLE_EQ(r.global.samples(), 8.0);
  EXPECT_EQ(r.sched.tasks, 8u);
  EXPECT_GE(r.sched.balance(), 1.0);
  EXPECT_GT(r.sched.busy_max_seconds, 0.0);
}

}  // namespace

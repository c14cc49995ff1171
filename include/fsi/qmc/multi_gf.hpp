#pragma once
/// \file multi_gf.hpp
/// \brief Parallel application of FSI to many Green's functions
/// (paper Alg. 3 / Fig. 5) on the persistent task-graph executor.
///
/// DQMC needs selected inversions of tens of thousands of Hubbard matrices.
/// The matrices are parameterised by the Hubbard-Stratonovich field, so —
/// as the paper prescribes — the caller generates the random fields and
/// each task builds its matrices from its field; FSI and the local
/// measurement quantities follow, and the per-task measurements are merged
/// in task order.
///
/// A batch runs as one sched::TaskGraph: per task and spin, one
/// matrix-assembly node, b cluster-product nodes, one BSOFI node and b
/// AllDiagonals walk nodes; per heavy task, b fused nodes that walk the
/// Rows and Columns panels of both spins and sum SPXX and the pair
/// susceptibility line by line without storing a block; then one
/// measurement node per task.  run_dqmc runs each measurement sweep's
/// configuration as a one-task batch.  Every
/// node of task t starts on worker t*W/T's deque (the paper's contiguous
/// static split) and idle workers steal the back half of a busy worker's
/// backlog, so heterogeneous batches (see \ref MultiGfOptions::heavy_fraction)
/// balance at panel-walk granularity.  The result is bit-identical
/// regardless of worker count, thread count or steal order: each task's
/// wrapping offset q comes from (seed, task index) alone, every node writes
/// disjoint outputs with a fixed kernel sequence, and the measurement merge
/// walks tasks in ascending order.

#include <cstdint>
#include <vector>

#include "fsi/precision.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/qmc/measurements.hpp"

namespace fsi::qmc {

/// Options of one hybrid run.  The paper's Fig. 9 sweeps MPI ranks x
/// OpenMP threads with the product fixed at the core count; here the two
/// axes are graph workers x OpenMP threads per worker.
struct MultiGfOptions {
  index_t num_matrices = 8;      ///< total Hubbard matrices (per spin pair)
  int num_ranks = 2;             ///< graph workers driving the batch
  int omp_threads_per_rank = 0;  ///< per worker; 0 = OpenMP max threads / workers
  index_t cluster_size = 0;      ///< 0 = divisor of L nearest sqrt(L)
  bool measure_time_dependent = true;
  /// Fraction of the batch (front-loaded) that also computes the Rows /
  /// Columns wrapping passes and SPXX; the rest measures equal-time only.
  /// 1.0 = homogeneous batch; < 1.0 makes the batch skewed — the contiguous
  /// static split then overloads the low workers, which is exactly the
  /// imbalance work stealing is there to fix.  Ignored (treated as 0) when
  /// measure_time_dependent is false.
  double heavy_fraction = 1.0;
  std::uint64_t seed = 99;
};

/// Scheduler + workspace-pool telemetry of one batch.
struct SchedSummary {
  int workers = 0;                  ///< graph workers driving the batch
  std::uint32_t tasks = 0;          ///< matrices scheduled
  std::uint64_t steal_batches = 0;  ///< successful steals across all workers
  std::uint64_t stolen_tasks = 0;   ///< graph nodes that migrated via stealing
  std::uint64_t pool_hits = 0;      ///< workspace-pool hits during the run
  std::uint64_t pool_misses = 0;    ///< workspace-pool misses during the run
  double busy_max_seconds = 0.0;    ///< busiest worker's in-node wall time
  double busy_mean_seconds = 0.0;   ///< mean in-node wall time per worker
  std::vector<double> busy_seconds; ///< per-worker in-node wall time

  // --- task-graph telemetry -------------------------------------------------
  std::uint64_t graph_nodes = 0;       ///< task-graph nodes executed
  double critical_path_seconds = 0.0;  ///< duration-weighted longest chain
  double ready_depth_mean = 0.0;       ///< own-deque depth sampled at pops
  double stage_build_seconds = 0.0;    ///< summed matrix-assembly node time
  double stage_cls_seconds = 0.0;      ///< summed cluster-product node time
  double stage_bsofi_seconds = 0.0;    ///< summed BSOFI node time
  double stage_wrap_seconds = 0.0;     ///< summed panel-walk node time
  double stage_measure_seconds = 0.0;  ///< summed measurement node time

  // --- mixed-precision telemetry (zero for fp64 batches) ------------------
  std::uint32_t mixed_tasks = 0;      ///< tasks attempted in mixed mode
  std::uint32_t mixed_fallbacks = 0;  ///< tasks the gate redid in fp64

  /// Load balance as max/mean busy time; 1.0 is perfect, higher is worse.
  double balance() const {
    return busy_mean_seconds > 0.0 ? busy_max_seconds / busy_mean_seconds
                                   : 1.0;
  }
  /// hits / (hits + misses), or 0 when nothing was acquired.
  double pool_hit_rate() const {
    const double total =
        static_cast<double>(pool_hits) + static_cast<double>(pool_misses);
    return total > 0.0 ? static_cast<double>(pool_hits) / total : 0.0;
  }
};

struct MultiGfResult {
  Measurements global;     ///< merged over all tasks, ascending task order
  double seconds = 0.0;    ///< wall time of the parallel region
  std::uint64_t flops = 0; ///< dense-kernel flops across all workers/threads
  SchedSummary sched;      ///< scheduler + pool telemetry
  double gflops() const { return seconds > 0 ? flops / seconds * 1e-9 : 0.0; }
};

/// Run Alg. 3: generate the batch's fields and offsets from options.seed,
/// run them through run_fsi_batch, and merge the per-task measurements in
/// ascending task order.
MultiGfResult run_parallel_fsi(const HubbardModel& model,
                               const MultiGfOptions& options);

/// One externally-supplied inversion task for run_fsi_batch.  Unlike
/// run_parallel_fsi — which derives every field and wrapping offset from its
/// batch seed — the field and q here come from the caller (the serve path:
/// each network client ships its own Hubbard-Stratonovich configuration;
/// run_dqmc: the Markov chain's current configuration).
struct FsiBatchTask {
  HsField field;     ///< the HS configuration (defines M up to spin)
  index_t q = 0;     ///< wrapping offset in [0, c)
  bool heavy = true; ///< also walk the Rows/Columns panels and sum SPXX and
                     ///< the pair susceptibility
  /// Monte Carlo sign of the configuration (+1 or -1): the sample's weight
  /// in Measurements::add_sample and every accumulated sum.
  double sign = 1.0;
};

/// Execution knobs of one run_fsi_batch call.
struct FsiBatchOptions {
  int num_workers = 0;           ///< graph workers (0 = OpenMP max threads)
  int omp_threads_per_worker = 0;///< 0 = OpenMP max threads / workers
  index_t cluster_size = 0;      ///< 0 = divisor of L nearest sqrt(L)
  /// Scalar precision of the CLS and WRP nodes (FSI_PRECISION env default).
  /// Mixed tasks get a per-task gate node between the walk fences and the
  /// measurement: a seam residual (selinv::seam_residual, heavy tasks) or
  /// cond1 beyond selinv::mixed_gate() (or non-finite output) triggers an
  /// in-node serial fp64 recompute of that task, counted in
  /// Counter::MixedFallbacks.  BSOFI always runs fp64.
  Precision precision = precision_from_env();
};

/// Execute a batch of externally-supplied tasks as one task graph (build ->
/// cluster products -> BSOFI -> panel walks -> measure, one sub-graph per
/// task and spin, all on the persistent sched::Executor pool, so a
/// straggler task's panel walks are stolen by idle workers).  Returns one
/// Measurements per task, in task order; results are bit-identical to
/// running selinv::fsi_multi with coarse_parallel = false plus the serial
/// measurement accumulators (equal-time, SPXX, pair susceptibility) per
/// task, regardless of worker count or steal order.  A heavy fp64 task
/// picked by obs::health::should_sample_residual() records the seam
/// residual (selinv::seam_residual) between its walks 0 and 1 for both
/// spins and patterns.  \p sched, when non-null, receives the run's
/// scheduler telemetry.
std::vector<Measurements> run_fsi_batch(const HubbardModel& model,
                                        const std::vector<FsiBatchTask>& tasks,
                                        const FsiBatchOptions& options,
                                        SchedSummary* sched = nullptr);

}  // namespace fsi::qmc

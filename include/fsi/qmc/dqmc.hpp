#pragma once
/// \file dqmc.hpp
/// \brief The full DQMC simulation driver (paper Alg. 4 / Fig. 7).
///
/// A simulation runs `warmup` sweeps to thermalise the Hubbard-Stratonovich
/// field, then `measurement` sweeps; after each measurement sweep it runs
/// the configuration through qmc::run_fsi_batch as a one-task batch — the
/// same graph as the paper's many-Green's-function mode (Alg. 3): build
/// M^up/M^dn, CLS + BSOFI once per spin, then walk all L diagonal blocks
/// and (with measure_time_dependent) the b block rows and b block columns
/// (the Fig. 10 workload), measuring SPXX and the pair susceptibility as
/// the walks go, weighted by the chain's Monte Carlo sign.  The two
/// engines differ only in how that graph is executed:
///
///   - GreensEngine::Fsi      : the paper's contribution — the graph's
///                              default workers, one OpenMP thread each,
///                              run the cluster products, BSOFIs and panel
///                              walks side by side.
///   - GreensEngine::MklStyle : the paper's comparator ("pure multi-threaded
///                              MKL"): one worker walks the nodes in order
///                              on threaded kernels, which is what flattens
///                              the MKL curves in Figs. 8 (bottom), 10 and
///                              11.
///
/// Every node runs the same kernels and the measurement sums in one fixed
/// order, so the result does not depend on the engine or the thread count.

#include <cstdint>

#include "fsi/qmc/greens.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/qmc/measurements.hpp"

namespace fsi::qmc {

/// How the per-measurement one-task batch is executed.
enum class GreensEngine {
  Fsi,       ///< default graph workers, one OpenMP thread each (paper mode)
  MklStyle,  ///< one graph worker on threaded kernels — the paper's
             ///< "pure MKL" comparator
};

/// Simulation options (paper Fig. 11 uses w=100, m=200, c=10).
struct DqmcOptions {
  index_t warmup_sweeps = 20;
  index_t measurement_sweeps = 40;
  /// FSI cluster size c; 0 picks the divisor of L closest to sqrt(L).
  index_t cluster_size = 0;
  /// Sweeps' Green's functions are recomputed (stabilised) after this many
  /// slice wraps.
  index_t wrap_interval = 8;
  /// Delayed-update depth of the sweep engines (0 = immediate rank-1
  /// updates; >0 accumulates that many updates per GEMM flush — the
  /// optimisation of the paper's ref. [23]).
  index_t delay_depth = 0;
  GreensEngine engine = GreensEngine::Fsi;
  /// How the sweep engines recompute G at stabilisation points; the default
  /// follows FSI_STAB (QrAccumulate when unset — pre-stab behavior, or the
  /// stab::StabilizedChain UDT path for large-beta runs).
  RecomputeMethod recompute = default_recompute_method();
  /// Also walk the block rows+columns and measure SPXX and the pair
  /// susceptibility (the time-dependent measurements).
  bool measure_time_dependent = true;
  std::uint64_t seed = 1234;
};

/// Wall-clock breakdown matching the paper's Fig. 10/11 profiles.
struct DqmcTimings {
  double warmup_seconds = 0.0;   ///< Metropolis sweeps (both phases)
  /// Stabilised recomputes plus each measurement batch's wall time outside
  /// its measure nodes (FSI, and SPXX / pair sums inside the walks).
  double greens_seconds = 0.0;
  /// Summed measure-node time of the batches
  /// (SchedSummary::stage_measure_seconds).
  double measure_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Numerical-stability statistics of one simulation (both spin engines
/// combined).  The drift samples also stream into obs::health, where the
/// bounded per-recompute time series and the OK/WARN/FAIL classification
/// live; this struct carries the scalar summary alongside the result.
struct DqmcStats {
  index_t recomputes = 0;      ///< stabilised recomputes across both spins
  double last_drift = 0.0;     ///< worse spin's drift at the final recompute
  double max_drift = 0.0;      ///< largest drift over the whole simulation
};

struct DqmcResult {
  Measurements measurements;
  DqmcTimings timings;
  double acceptance_rate = 0.0;
  DqmcStats stats;
};

/// Choose the divisor of \p l closest to sqrt(l) (the paper's c ~ sqrt(L)).
index_t default_cluster_size(index_t l);

/// One full Metropolis sweep over all (slice, site) pairs, updating
/// \p field and the two Green's engines in lock-step.  Returns the number
/// of accepted flips; \p sign is multiplied by the sign of each accepted
/// ratio (tracking the Monte Carlo sign).
index_t metropolis_sweep(const HubbardModel& model, HsField& field,
                         EqualTimeGreens& g_up, EqualTimeGreens& g_dn,
                         util::Rng& rng, double& sign);

/// Run a full DQMC simulation.
DqmcResult run_dqmc(const HubbardModel& model, const DqmcOptions& options);

}  // namespace fsi::qmc

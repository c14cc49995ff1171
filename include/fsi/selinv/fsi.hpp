#pragma once
/// \file fsi.hpp
/// \brief The Fast Selected Inversion algorithm (paper Alg. 1) — the
/// primary contribution of the reproduced paper.
///
/// FSI computes a selected inversion S of a block p-cyclic matrix M in three
/// stages:
///   1. CLS  — factor-of-c block cyclic reduction: cluster the L blocks into
///             b = L/c products of c consecutive B's (cost 2b(c-1)N^3,
///             embarrassingly parallel over clusters);
///   2. BSOFI — stable structured-orthogonal inversion of the reduced b-block
///             p-cyclic matrix (cost ~7b^2 N^3);
///   3. WRP  — wrapping (paper Alg. 2): the b^2 blocks of the reduced inverse
///             are exact blocks of G (Eq. 8, G~_{k0,l0} = G_{c k0-q, c l0-q});
///             use them as seeds and the adjacency relations to grow the
///             requested pattern (cost 3(bL - b^2)N^3, parallel over the b
///             block-row/column panels of seeds).
///
/// The random offset q (uniform in [0, c)) shifts which blocks are selected
/// so that, across many Green's functions in a Monte Carlo run, all of G is
/// sampled uniformly.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "fsi/bsofi/bsofi.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/pcyclic/patterns.hpp"
#include "fsi/pcyclic/pcyclic.hpp"
#include "fsi/precision.hpp"
#include "fsi/sched/workspace_pool.hpp"
#include "fsi/util/rng.hpp"

namespace fsi::selinv {

using dense::index_t;
using pcyclic::Pattern;

/// FSI parameters.
struct FsiOptions {
  /// Cluster size c (must divide L).  The paper recommends c ~ sqrt(L):
  /// larger c reduces more but loses precision to round-off in the chain
  /// products (see the stability ablation bench).
  index_t c = 10;
  /// Offset q in [0, c), or -1 to draw it uniformly (paper default).
  index_t q = -1;
  /// Which blocks of G to compute.
  Pattern pattern = Pattern::Columns;
  /// Coarse-grain OpenMP parallelism over clusters (CLS) and panel walks
  /// (WRP), one thread per unit.
  /// true  = the paper's "FSI with OpenMP" mode;
  /// false = the paper's "pure multi-threaded MKL" comparator (Figs. 8
  ///         bottom, 10): serial outer loops, threaded kernels only.
  bool coarse_parallel = true;
  /// Scalar precision of the error-tolerant stages.  Fp64 (the default
  /// unless FSI_PRECISION overrides it) is bit-identical to the historic
  /// pipeline.  Mixed runs CLS cluster products and WRP panel walks in fp32
  /// (BSOFI stays fp64), health-gates the result, and reruns in fp64 when
  /// the gate trips — see mixed_gate() and docs/precision.md.
  Precision precision = precision_from_env();
};

/// Per-stage timings and flop counts of one FSI run (for the Fig. 8/10
/// performance profiles).
struct FsiStats {
  double seconds_cls = 0.0;
  double seconds_bsofi = 0.0;
  double seconds_wrap = 0.0;
  std::uint64_t flops_cls = 0;
  std::uint64_t flops_bsofi = 0;
  std::uint64_t flops_wrap = 0;
  index_t q = 0;  ///< the offset actually used
  /// Precision the returned result was actually computed at: Mixed runs
  /// that trip the health gate report Fp64 here (and set mixed_fallback).
  Precision precision_used = Precision::Fp64;
  bool mixed_fallback = false;  ///< a mixed attempt was redone in fp64

  double seconds_total() const {
    return seconds_cls + seconds_bsofi + seconds_wrap;
  }
  std::uint64_t flops_total() const {
    return flops_cls + flops_bsofi + flops_wrap;
  }
};

/// One cluster product B~_i — the body of one CLS loop iteration / graph
/// node — computed at scalar \p T and returned as the fp64 block the
/// reduced matrix stores.  T = float demotes each B block on the fly
/// (O(N^2) against the O(cN^3) chain), multiplies the chain in fp32 and
/// promotes the product on completion, so BSOFI consumes it unchanged.
/// Pool-backed; safe to call concurrently for distinct \p i.  Instantiated
/// for double (the default) and float.
template <typename T = double>
dense::Matrix cluster_product(const pcyclic::PCyclicMatrix& m, index_t c,
                              index_t q, index_t i);

/// Stage 1 (CLS): factor-of-c block cyclic reduction.  Returns the fp64
/// reduced b-block p-cyclic matrix whose blocks are
///   B~_{i} = B_{j0} B_{j0-1} ... B_{j0-c+1},  j0 = c(i+1) - q - 1 (0-based),
/// cyclic in the block index, each a cluster_product<T>.  Cluster products
/// run in parallel (OpenMP).  Instantiated for double (the default) and
/// float.
template <typename T = double>
pcyclic::PCyclicMatrix cluster(const pcyclic::PCyclicMatrix& m, index_t c,
                               index_t q, bool parallel = true);

/// One panel walk — the body of one WRP loop iteration / graph node.  Every
/// pattern has b = sel.b() units.  Columns: unit k0 walks block row k0 of
/// \p gtilde (its b seeds share row index idx[k0], so each up/down step is
/// one N x bN GEMM against B_k^-1 or B_k) and fills the c rows around
/// idx[k0] in every selected column.  Rows: unit l0 walks block column l0
/// the same way with left/right steps.  Diagonal family: unit k0 walks the
/// diagonal seed G~(k0, k0).  Blocks are stored into \p out as fp64 (fp32
/// walks promote on store, so downstream measurement code is unchanged).
/// Distinct units write disjoint slots, so concurrent walks need no
/// locking.  The walk's kernels thread as the caller's OpenMP setting
/// allows; coarse-parallel callers run each walk on one thread.
/// Instantiated for double and float (the mixed-precision WRP).
template <typename T>
void wrap_panel(const pcyclic::BasicBlockOps<T>& ops,
                const dense::BasicMatrix<T>& gtilde, Pattern pattern,
                const pcyclic::Selection& sel,
                pcyclic::SelectedInversion& out, index_t unit);

/// Walk \p P seed panels sitting on line \p pos in lockstep (paper Alg. 2):
/// \p up_steps moves towards lower line indices, then \p down_steps
/// towards higher ones, from the seeds each time.  move(p, at, dir, src,
/// dst) writes panel p of line at + dir into dst; visit(at, panels) sees
/// the P panels of every line, the seeds first.  A visited panel is valid
/// until visit returns: each panel has two pool-backed ping-pong buffers,
/// and every step reads the previous line's buffer and writes the other.
template <typename T, std::size_t P, typename Move, typename Visit>
void walk_panels(const pcyclic::PCyclicMatrix& m,
                 const std::array<dense::BasicConstMatrixView<T>, P>& seeds,
                 index_t pos, index_t up_steps, index_t down_steps,
                 Move&& move, Visit&& visit) {
  using View = dense::BasicConstMatrixView<T>;
  visit(pos, seeds);
  std::array<dense::BasicMatrix<T>, P> cur, prev;
  for (std::size_t p = 0; p < P; ++p) {
    cur[p] = sched::acquire_as<T>(seeds[p].rows(), seeds[p].cols());
    prev[p] = sched::acquire_as<T>(seeds[p].rows(), seeds[p].cols());
  }
  for (const index_t dir : {index_t{-1}, index_t{1}}) {
    std::array<View, P> line = seeds;
    index_t at = pos;
    for (index_t s = 0; s < (dir < 0 ? up_steps : down_steps); ++s) {
      for (std::size_t p = 0; p < P; ++p) {
        move(p, at, dir, line[p], cur[p].view());
        std::swap(cur[p], prev[p]);
        line[p] = prev[p];
      }
      at = m.wrap(at + dir);
      visit(at, line);
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    sched::recycle(std::move(cur[p]));
    sched::recycle(std::move(prev[p]));
  }
}

/// Stage 3 (WRP): grow the selected inversion from the reduced inverse
/// \p gtilde (a dense bN x bN matrix, as produced by bsofi::invert, or its
/// fp32 demotion with fp32 \p ops).  With \p parallel the b panel walks
/// of wrap_panel run as an OpenMP loop, one thread per walk; without it
/// they run serially on threaded kernels (the pure-MKL comparator).  Each
/// walk takes floor((c-1)/2) steps one way and floor(c/2) the other so
/// consecutive seeds tile the pattern exactly (paper Alg. 2).
template <typename T>
pcyclic::SelectedInversion wrap(const pcyclic::BasicBlockOps<T>& ops,
                                const dense::BasicMatrix<T>& gtilde,
                                Pattern pattern, const pcyclic::Selection& sel,
                                bool parallel = true);

// ---------------------------------------------------------------------------
// Mixed-precision health gate.

/// Acceptance thresholds of one mixed run.  A run falls back to fp64 when
/// the probed residual exceeds resid_max, when the reduced matrix's cond1
/// estimate exceeds cond_max, or when the reduced inverse holds non-finite
/// values.  The defaults are the gate: resid_max 1e-3 matches the health
/// layer's resid_fail, and past cond_max 1e8 fp32's ~7 significant digits
/// are spent on conditioning alone.
struct MixedGate {
  double resid_max = 1e-3;
  double cond_max = 1e8;
};

/// The process-wide gate (the defaults above until set — tests force
/// fallbacks by lowering resid_max or cond_max to 0).
MixedGate mixed_gate() noexcept;
void set_mixed_gate(const MixedGate& gate) noexcept;

/// The verdict of mixed_gate() on one mixed run: nullptr when it passes,
/// else "cond1" (\p cond1 above cond_max), "nonfinite" (\p gtilde holds an
/// Inf or NaN) or "residual" (\p worst_residual above resid_max), checked
/// in that order.  A NaN cond1 or residual trips.  A negative
/// \p worst_residual means none was probed, so a caller can check cond1 and
/// finiteness before it spends the walks.
const char* mixed_gate_reason(double cond1, dense::ConstMatrixView gtilde,
                              double worst_residual);

/// A mixed run the gate sent back to fp64: counts Counter::MixedFallbacks
/// and WARN-logs the reason with the gate, as "fsi.mixed_fallback" for a
/// single call (\p task < 0) or "qmc.mixed_fallback" for batch task
/// \p task.
void count_mixed_fallback(const char* reason, index_t task = -1);

/// Worst probed residual ||(M G_sel - I) block||_max over two rotating
/// block probes — the check fsi_multi makes on sampled fp64 calls
/// (obs::health::should_sample_residual) and on every mixed run.  Returns
/// -1 for patterns that store no adjacent blocks (no residual can be formed
/// from stored data); the gate then relies on the cond1 bound alone.
double probe_residual(const pcyclic::PCyclicMatrix& m,
                      const pcyclic::SelectedInversion& out, Pattern pattern,
                      const pcyclic::Selection& sel);

/// ||M G - I||_max where two independent panel walks meet.  Walk u ends on
/// line a = idx[u] + floor(c/2) and walk u+1 starts on line a + 1, so the
/// relation between the two lines mixes the round-off of both walks.
/// Columns: \p lo / \p hi hold G(a, idx[j]) / G(a+1, idx[j]) side by side
/// (N x bN), checked against block row a+1 of M.  Rows: they hold
/// G(idx[j], a) / G(idx[j], a+1) stacked (bN x N), checked against block
/// column a of G M = I.  One N x N x bN GEMM — what the mixed gate of a
/// batch checks, since a batch keeps no Rows/Columns blocks to probe.
double seam_residual(const pcyclic::PCyclicMatrix& m, Pattern pattern,
                     const pcyclic::Selection& sel, index_t a,
                     dense::ConstMatrixView lo, dense::ConstMatrixView hi);

/// cond1 of the reduced matrix from its blocks and explicit inverse:
/// (1 + max_i ||B~_i||_1) ||G~||_1 (exact 1-norm identity for p-cyclic
/// normal form).  O((bN)^2) — the mixed gate's second input.
double reduced_cond1(const pcyclic::PCyclicMatrix& reduced,
                     dense::ConstMatrixView gtilde);

/// The full FSI algorithm (paper Alg. 1): fsi_multi with the single
/// pattern opts.pattern.  \p rng supplies the random q when opts.q < 0.
/// \p stats, when non-null, receives per-stage times/flops.  Prebuilt
/// \p ops must wrap the same matrix \p m.
pcyclic::SelectedInversion fsi(const pcyclic::PCyclicMatrix& m,
                               const pcyclic::BlockOps& ops,
                               const FsiOptions& opts, util::Rng& rng,
                               FsiStats* stats = nullptr);

/// Convenience overload that builds the BlockOps internally (its
/// inversion time is attributed to the wrapping stage, which is the
/// only consumer).
pcyclic::SelectedInversion fsi(const pcyclic::PCyclicMatrix& m,
                               const FsiOptions& opts, util::Rng& rng,
                               FsiStats* stats = nullptr);

/// Multi-pattern FSI: run CLS + BSOFI *once* and wrap several patterns from
/// the shared reduced inverse — the DQMC measurement workload (all
/// diagonals + block rows + block columns per Green's function, Fig. 10)
/// without re-reducing per pattern.  All patterns share the same q.
/// Results are returned in the order of \p patterns.
std::vector<pcyclic::SelectedInversion> fsi_multi(
    const pcyclic::PCyclicMatrix& m, const pcyclic::BlockOps& ops,
    const std::vector<Pattern>& patterns, const FsiOptions& opts,
    util::Rng& rng, FsiStats* stats = nullptr);

/// Closed-form flop counts from the paper's Sec. II-C complexity table,
/// used by the complexity bench to compare measured vs predicted.
struct ComplexityModel {
  index_t n_block, l_total, c;
  index_t b() const { return l_total / c; }
  /// Per-stage flop predictions (paper Sec. II-C): CLS 2b(c-1)N^3,
  /// BSOFI 7b^2N^3, WRP 3(bL-b^2)N^3 for the column/row patterns.
  /// The obs report layer joins these against measured stage times.
  double cls_flops() const;
  double bsofi_flops() const;
  double wrap_flops(Pattern pattern) const;
  /// FSI flops for the pattern (paper: [2(c-1)+7b]bN^3, [2c+7b]bN^3, 3b^2cN^3).
  double fsi_flops(Pattern pattern) const;
  /// Explicit-form flops (paper: 2b^2cN^3, 4b^2cN^3, b^3c^2N^3).
  double explicit_flops(Pattern pattern) const;
};

}  // namespace fsi::selinv

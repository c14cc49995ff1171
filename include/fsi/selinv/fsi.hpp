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

#include <cstdint>
#include <vector>

#include "fsi/bsofi/bsofi.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/pcyclic/patterns.hpp"
#include "fsi/pcyclic/pcyclic.hpp"
#include "fsi/precision.hpp"
#include "fsi/sched/task_graph.hpp"
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
  ///         bottom, 10, 11): serial outer loops, threaded kernels only.
  bool coarse_parallel = true;
  /// How the stage parallelism is executed.
  ///   Auto     — Graph when coarse_parallel and the FSI_EXEC env flag
  ///              (default on) allows it, else OmpLoops;
  ///   Graph    — decompose into a dependency-aware task graph run on the
  ///              persistent executor pool (cluster products, BSOFI and
  ///              panel walks become stealable nodes);
  ///   OmpLoops — flat OpenMP loops per stage (the pre-executor behaviour,
  ///              kept as an A/B baseline; bit-identical results).
  /// Note: coarse_parallel == false always executes serial loops — it is
  /// the paper's pure-MKL comparator and must stay loop-shaped.
  enum class Exec { Auto, Graph, OmpLoops };
  Exec exec = Exec::Auto;
  /// Scalar precision of the error-tolerant stages.  Fp64 (the default
  /// unless FSI_PRECISION overrides it) is bit-identical to the historic
  /// pipeline.  Mixed runs CLS cluster products and WRP panel walks in fp32
  /// (BSOFI stays fp64), health-gates the result, and reruns in fp64 when
  /// the gate trips — see mixed_gate() and docs/precision.md.  Mixed runs
  /// execute loop-shaped (the graph path is fp64-only at this layer; the
  /// batched graph engine in qmc::run_fsi_batch has its own mixed nodes).
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

/// Stage 1 (CLS): factor-of-c block cyclic reduction.  Returns the reduced
/// b-block p-cyclic matrix whose blocks are
///   B~_{i} = B_{j0} B_{j0-1} ... B_{j0-c+1},  j0 = c(i+1) - q - 1 (0-based),
/// cyclic in the block index.  Cluster products run in parallel (OpenMP).
pcyclic::PCyclicMatrix cluster(const pcyclic::PCyclicMatrix& m, index_t c,
                               index_t q, bool parallel = true);

/// One cluster product B~_i — the body of one CLS loop iteration / graph
/// node.  Pool-backed; safe to call concurrently for distinct \p i.
dense::Matrix cluster_product(const pcyclic::PCyclicMatrix& m, index_t c,
                              index_t q, index_t i);

/// Mixed-precision twin of cluster_product: demotes each B block on the
/// fly (O(N^2) against the O(cN^3) product) and multiplies the chain in
/// fp32.  The caller promotes the product before BSOFI.
dense::MatrixF cluster_product_f(const pcyclic::PCyclicMatrix& m, index_t c,
                                 index_t q, index_t i);

/// CLS with fp32 cluster products, each promoted to fp64 on completion —
/// the reduced matrix feeds the (always-fp64) BSOFI stage unchanged.
pcyclic::PCyclicMatrix cluster_mixed(const pcyclic::PCyclicMatrix& m,
                                     index_t c, index_t q,
                                     bool parallel = true);

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
/// estimate exceeds cond_max, or when any fp32 stage produced non-finite
/// values.  Defaults come from FSI_PRECISION_RESID_MAX (1e-3, matching the
/// health layer's resid_fail) and FSI_PRECISION_COND_MAX (1e8: past that,
/// fp32's ~7 significant digits are spent on conditioning alone).
struct MixedGate {
  double resid_max = 1e-3;
  double cond_max = 1e8;
};

/// The process-wide gate (env-seeded once, then runtime-settable — tests
/// force fallbacks by lowering resid_max to 0).
MixedGate mixed_gate() noexcept;
void set_mixed_gate(const MixedGate& gate) noexcept;

/// Worst probed residual ||(M G_sel - I) block||_max over two rotating
/// block probes — the same check residual_spot_check samples, exposed so
/// the mixed gate can run it on every mixed run.  Returns -1 for patterns
/// that store no adjacent blocks (no residual can be formed from stored
/// data); the gate then relies on the cond1 bound alone.
double probe_residual(const pcyclic::PCyclicMatrix& m,
                      const pcyclic::SelectedInversion& out, Pattern pattern,
                      const pcyclic::Selection& sel);

/// cond1 of the reduced matrix from its blocks and explicit inverse:
/// (1 + max_i ||B~_i||_1) ||G~||_1 (exact 1-norm identity for p-cyclic
/// normal form).  O((bN)^2) — the mixed gate's second input.
double reduced_cond1(const pcyclic::PCyclicMatrix& reduced,
                     dense::ConstMatrixView gtilde);

/// The full FSI algorithm (paper Alg. 1).  \p rng supplies the random q
/// when opts.q < 0.  \p stats, when non-null, receives per-stage
/// times/flops.  Prebuilt \p ops must wrap the same matrix \p m.
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

/// Storage of one FSI decomposed into graph nodes.  The caller owns this
/// object and must keep it (and the referenced matrix/ops) alive until the
/// graph has run; node bodies write disjoint parts of it:
///   - cluster node i writes cls_blocks[i];
///   - the BSOFI node assembles the reduced matrix from cls_blocks
///     (recycling them) and writes gtilde + the stage flop fences;
///   - wrap node (p, unit) writes disjoint slots of results[p].
/// After the run the caller recycles gtilde and harvests results.
struct FsiGraphTask {
  const pcyclic::PCyclicMatrix* m = nullptr;
  const pcyclic::BlockOps* ops = nullptr;
  pcyclic::Selection sel{1, 1, 0};
  std::vector<Pattern> patterns;

  std::vector<dense::Matrix> cls_blocks;          ///< filled by CLS nodes
  dense::Matrix gtilde;                           ///< filled by the BSOFI node
  std::vector<pcyclic::SelectedInversion> results;  ///< one per pattern

  /// Global flop-counter fences recorded by the BSOFI node at entry/exit.
  /// Dependencies order the stages inside one graph, so for a lone FSI run
  /// these attribute flops per stage exactly (same external-concurrency
  /// caveat as the loop-mode flop scopes).
  std::uint64_t flops_at_cls_end = 0;
  std::uint64_t flops_at_bsofi_end = 0;
};

/// Node ids of one emitted FSI, for wiring cross-task dependencies (e.g. a
/// measurement node that needs every wrap walk of a task).
struct FsiEmit {
  sched::NodeId bsofi = 0;
  std::vector<sched::NodeId> wrap_nodes;
};

/// Decompose one FSI into graph nodes: b cluster-product nodes, one BSOFI
/// node depending on them, and b panel-walk nodes per pattern (each on one
/// OpenMP thread) depending on BSOFI.  \p task must have m/ops/sel/patterns
/// set; its storage fields are sized here.  All nodes carry \p owner_hint, so with
/// stealing disabled an entire task runs on its statically assigned worker.
FsiEmit emit_fsi_tasks(sched::TaskGraph& graph, FsiGraphTask& task,
                       int owner_hint = 0);

/// Stable computation of the single equal-time block G(k, k) via CLS and a
/// *partial* BSOFI (one block row of the reduced inverse, O(b N^3) instead
/// of O(b^2 N^3)) — the economical path for one Green's function block.
/// The offset q is chosen internally so that k is a seed index.
dense::Matrix equal_time_block(const pcyclic::PCyclicMatrix& m, index_t k,
                               index_t c);

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

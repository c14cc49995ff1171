#include "fsi/selinv/fsi.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/obs/env.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/sched/executor.hpp"
#include "fsi/sched/workspace_pool.hpp"
#include "fsi/util/flops.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::selinv {

using pcyclic::PCyclicMatrix;
using pcyclic::SelectedInversion;
using pcyclic::Selection;

namespace {

/// Meters one FSI stage: opens a trace span and, on destruction, adds the
/// stage's wall time and flop delta to the FsiStats fields it was given.
class StageMeter {
 public:
  StageMeter(const char* span_name, double& seconds, std::uint64_t& flops)
      : span_(span_name), seconds_(seconds), flops_(flops) {}
  StageMeter(const StageMeter&) = delete;
  StageMeter& operator=(const StageMeter&) = delete;
  ~StageMeter() {
    seconds_ += timer_.seconds();
    flops_ += flop_scope_.elapsed();
  }

 private:
  obs::Span span_;
  double& seconds_;
  std::uint64_t& flops_;
  util::WallTimer timer_;
  util::flops::Scope flop_scope_;
};

}  // namespace

dense::Matrix cluster_product(const PCyclicMatrix& m, index_t c, index_t q,
                              index_t i) {
  // Cluster i covers the c consecutive blocks ending at j0 = c(i+1)-q-1:
  //   B~_i = B[j0] B[j0-1] ... B[j0-c+1]  (indices cyclic).
  FSI_OBS_SPAN("cls.cluster");
  const index_t n = m.block_size();
  const index_t j_lo = c * i - q;  // j0 - c + 1
  dense::Matrix prod = sched::acquire_copy(m.b(m.wrap(j_lo)));
  dense::Matrix next = sched::acquire(n, n);
  for (index_t t = 1; t < c; ++t) {
    dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, m.b(m.wrap(j_lo + t)),
                prod, 0.0, next);
    std::swap(prod, next);
  }
  sched::recycle(std::move(next));
  return prod;
}

PCyclicMatrix cluster(const PCyclicMatrix& m, index_t c, index_t q,
                      bool parallel) {
  const index_t l = m.num_blocks();
  FSI_CHECK(c > 0 && l % c == 0, "cluster: c must divide L");
  FSI_CHECK(q >= 0 && q < c, "cluster: q must be in [0, c)");
  const index_t b = l / c;
  const index_t n = m.block_size();

  PCyclicMatrix reduced(n, b);
  // Clusters are data-independent: "iterations for clustering B_i's can be
  // executed in embarrassingly parallel" (paper Sec. II-C).
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (index_t i = 0; i < b; ++i)
    reduced.b_matrix(i) = cluster_product(m, c, q, i);
  return reduced;
}

dense::MatrixF cluster_product_f(const PCyclicMatrix& m, index_t c, index_t q,
                                 index_t i) {
  // Same chain as cluster_product, with every factor demoted on the fly:
  // each B block belongs to exactly one cluster, so nothing is demoted
  // twice and the O(N^2) conversions vanish next to the O(cN^3) products.
  FSI_OBS_SPAN("cls.cluster_f");
  const index_t n = m.block_size();
  const index_t j_lo = c * i - q;  // j0 - c + 1
  dense::MatrixF prod = sched::acquire_f(n, n);
  dense::demote(m.b(m.wrap(j_lo)), prod.view());
  dense::MatrixF bf = sched::acquire_f(n, n);
  dense::MatrixF next = sched::acquire_f(n, n);
  for (index_t t = 1; t < c; ++t) {
    dense::demote(m.b(m.wrap(j_lo + t)), bf.view());
    dense::gemm(dense::Trans::No, dense::Trans::No, 1.0f, bf, prod, 0.0f,
                next);
    std::swap(prod, next);
  }
  sched::recycle(std::move(bf));
  sched::recycle(std::move(next));
  return prod;
}

PCyclicMatrix cluster_mixed(const PCyclicMatrix& m, index_t c, index_t q,
                            bool parallel) {
  const index_t l = m.num_blocks();
  FSI_CHECK(c > 0 && l % c == 0, "cluster_mixed: c must divide L");
  FSI_CHECK(q >= 0 && q < c, "cluster_mixed: q must be in [0, c)");
  const index_t b = l / c;
  const index_t n = m.block_size();

  PCyclicMatrix reduced(n, b);
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (index_t i = 0; i < b; ++i) {
    dense::MatrixF prod = cluster_product_f(m, c, q, i);
    dense::Matrix promoted = sched::acquire(n, n);
    dense::promote(prod, promoted.view());
    sched::recycle(std::move(prod));
    reduced.b_matrix(i) = std::move(promoted);
  }
  return reduced;
}

namespace {

/// Sampled health spot check: verify two stored blocks of a completed
/// Columns/Rows wrap against the defining relation M G = G M = I.
///
/// The Columns pattern stores a *full* block column per selected index, so
/// block row k of M applied to stored column `col` must give
///   G(k, col) - B_k G(k-1, col)       = delta_{k,col} I   (k >= 1)
///   G(0, col) + B_1 G(L-1, col)       = delta_{0,col} I   (corner block)
/// and symmetrically via G M = I for the Rows pattern.  Two probed block
/// rows cost ~4 N^3 flops against the ~3 b^2 c N^3 of the wrap itself
/// (~0.1% at the paper's shape), further divided by the sampling period;
/// probe positions rotate across calls so repeated sampling sweeps the
/// whole selection.  Other patterns store no adjacent blocks, so no
/// residual can be formed from stored data alone — they are skipped.
void residual_spot_check(const PCyclicMatrix& m, const SelectedInversion& out,
                         Pattern pattern, const Selection& sel) {
  if (pattern != Pattern::Columns && pattern != Pattern::Rows) return;
  if (!obs::health::should_sample_residual()) return;
  util::WallTimer health_timer;
  const double worst = probe_residual(m, out, pattern, sel);
  obs::health::record_residual(worst);
  obs::metrics::add_seconds(obs::metrics::Accum::HealthCheck,
                            health_timer.seconds());
}

}  // namespace

double probe_residual(const PCyclicMatrix& m, const SelectedInversion& out,
                      Pattern pattern, const Selection& sel) {
  if (pattern != Pattern::Columns && pattern != Pattern::Rows) return -1.0;
  const index_t n = m.block_size();
  const index_t l = m.num_blocks();
  const auto idx = sel.indices();

  static std::atomic<std::uint64_t> probe_tick{0};
  const std::uint64_t t = probe_tick.fetch_add(1, std::memory_order_relaxed);
  const index_t line = idx[static_cast<index_t>(t % idx.size())];

  double worst = 0.0;
  for (int probe = 0; probe < 2; ++probe) {
    const index_t k = static_cast<index_t>(
        (t + static_cast<std::uint64_t>(probe) *
                 static_cast<std::uint64_t>(l / 2 + 1)) %
        static_cast<std::uint64_t>(l));
    dense::Matrix r(n, n);
    index_t diag;  // the index that makes this block a diagonal of G
    if (pattern == Pattern::Columns) {
      dense::copy(out.at(k, line), r.view());
      if (k >= 1)
        dense::gemm(dense::Trans::No, dense::Trans::No, -1.0, m.b(k),
                    out.at(k - 1, line), 1.0, r);
      else
        dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, m.b(0),
                    out.at(l - 1, line), 1.0, r);
      diag = line;
    } else {
      dense::copy(out.at(line, k), r.view());
      if (k + 1 < l)
        dense::gemm(dense::Trans::No, dense::Trans::No, -1.0,
                    out.at(line, k + 1), m.b(k + 1), 1.0, r);
      else
        dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, out.at(line, 0),
                    m.b(0), 1.0, r);
      diag = line;
    }
    if (k == diag)
      for (index_t d = 0; d < n; ++d) r(d, d) -= 1.0;
    worst = std::max(worst, dense::max_abs(r.view()));
  }
  return worst;
}

double reduced_cond1(const PCyclicMatrix& reduced,
                     dense::ConstMatrixView gtilde) {
  double max_b = 0.0;
  for (index_t i = 0; i < reduced.num_blocks(); ++i)
    max_b = std::max(max_b, dense::one_norm(reduced.b(i)));
  return (1.0 + max_b) * dense::one_norm(gtilde);
}

namespace {

/// The process-wide gate cells, env-seeded on first touch.
struct GateCells {
  std::atomic<double> resid;
  std::atomic<double> cond;
  GateCells()
      : resid(obs::env_double("FSI_PRECISION_RESID_MAX",
                              MixedGate{}.resid_max)),
        cond(obs::env_double("FSI_PRECISION_COND_MAX", MixedGate{}.cond_max)) {}
};

GateCells& gate_cells() noexcept {
  static GateCells cells;
  return cells;
}

}  // namespace

MixedGate mixed_gate() noexcept {
  GateCells& g = gate_cells();
  return MixedGate{g.resid.load(std::memory_order_relaxed),
                   g.cond.load(std::memory_order_relaxed)};
}

void set_mixed_gate(const MixedGate& gate) noexcept {
  GateCells& g = gate_cells();
  g.resid.store(gate.resid_max, std::memory_order_relaxed);
  g.cond.store(gate.cond_max, std::memory_order_relaxed);
}

namespace {

/// Pool-backed fp64 copy of one walk block — what the SelectedInversion
/// slots hold (fp32 blocks are promoted on the way).
dense::Matrix stored(dense::ConstMatrixView src) {
  return sched::acquire_copy(src);
}
dense::Matrix stored(dense::ConstMatrixViewF src) {
  dense::Matrix out = sched::acquire(src.rows(), src.cols());
  dense::promote(src, out.view());
  return out;
}

/// Walk a seed panel sitting on line \p pos: \p up_steps moves towards
/// lower line indices, then \p down_steps towards higher ones, from the
/// seed each time (paper Alg. 2).  move(at, dir, src, dst) writes the panel
/// of line at + dir into dst; store(panel, at) files a panel of line at.
/// Two ping-pong buffers: each step reads the previous panel and writes the
/// other.
template <typename T, typename Move, typename Store>
void walk(const PCyclicMatrix& m, dense::BasicConstMatrixView<T> seed,
          index_t pos, index_t up_steps, index_t down_steps, Move&& move,
          Store&& store) {
  store(seed, pos);
  dense::BasicMatrix<T> cur = sched::acquire_as<T>(seed.rows(), seed.cols());
  dense::BasicMatrix<T> prev = sched::acquire_as<T>(seed.rows(), seed.cols());
  for (const index_t dir : {index_t{-1}, index_t{1}}) {
    dense::BasicConstMatrixView<T> src = seed;
    index_t at = pos;
    for (index_t s = 0; s < (dir < 0 ? up_steps : down_steps); ++s) {
      move(at, dir, src, cur.view());
      at = m.wrap(at + dir);
      store(cur, at);
      std::swap(cur, prev);
      src = prev;
    }
  }
  sched::recycle(std::move(cur));
  sched::recycle(std::move(prev));
}

}  // namespace

template <typename T>
void wrap_panel(const pcyclic::BasicBlockOps<T>& ops,
                const dense::BasicMatrix<T>& gtilde, Pattern pattern,
                const Selection& sel, SelectedInversion& out, index_t unit) {
  FSI_OBS_SPAN("wrp.panel");
  const index_t n = ops.block_size();
  const index_t l = ops.num_blocks();
  const index_t b = sel.b();
  const std::vector<index_t> idx = sel.indices();
  const index_t pos = idx[unit];
  const index_t up_steps = (sel.c - 1) / 2;
  const index_t down_steps = sel.c / 2;
  using Panel = dense::BasicConstMatrixView<T>;
  using Out = dense::BasicMatrixView<T>;
  const Panel g = gtilde;

  switch (pattern) {
    case Pattern::Diagonal:
      // S1 is exactly the diagonal seeds — no adjacency moves needed.
      out.slot(pos, pos) = stored(g.block(unit * n, unit * n, n, n));
      break;
    case Pattern::SubDiagonal: {
      // One rightward move from each diagonal seed (skip k = L-1, whose
      // sub-diagonal neighbour leaves the matrix per the paper's S2).
      if (pos == l - 1) break;
      dense::BasicMatrix<T> moved =
          ops.right(pos, pos, g.block(unit * n, unit * n, n, n));
      out.slot(pos, pos + 1) = stored(moved);
      sched::recycle(std::move(moved));
      break;
    }
    case Pattern::Columns:
      // Paper Alg. 2, batched: block row `unit` of G~ holds the b seeds
      // G(pos, idx[j]) side by side; walking it up and down fills the c
      // rows around pos in every selected column, one GEMM per step.
      walk(ops.matrix(), g.block(unit * n, 0, n, b * n), pos, up_steps,
           down_steps,
           [&](index_t at, index_t dir, Panel src, Out dst) {
             if (dir < 0)
               ops.up(at, idx, src, dst);
             else
               ops.down(at, idx, src, dst);
           },
           [&](Panel panel, index_t at) {
             for (index_t j = 0; j < b; ++j)
               out.slot(at, idx[j]) = stored(panel.block(0, j * n, n, n));
           });
      break;
    case Pattern::Rows:
      // Mirror of the column walk on block column `unit` of G~ (the b
      // seeds G(idx[j], pos) stacked), using the horizontal relations
      // (Eqs. 6/7).
      walk(ops.matrix(), g.block(0, unit * n, b * n, n), pos, up_steps,
           down_steps,
           [&](index_t at, index_t dir, Panel src, Out dst) {
             if (dir < 0)
               ops.left(idx, at, src, dst);
             else
               ops.right(idx, at, src, dst);
           },
           [&](Panel panel, index_t at) {
             for (index_t j = 0; j < b; ++j)
               out.slot(idx[j], at) = stored(panel.block(j * n, 0, n, n));
           });
      break;
    case Pattern::AllDiagonals: {
      // Diagonal walk of one seed by similarity transforms,
      //   up-left:    G(k-1, k-1) = B_k^-1 G(k, k) B_k,
      //   down-right: G(k+1, k+1) = B_{k+1} G(k, k) B_{k+1}^-1,
      // each composed from one vertical and one horizontal adjacency move
      // (the "Hirsch wrapping" for equal-time blocks).
      dense::BasicMatrix<T> mid = sched::acquire_as<T>(n, n);
      walk(ops.matrix(), g.block(unit * n, unit * n, n, n), pos, up_steps,
           down_steps,
           [&](index_t k, index_t dir, Panel src, Out dst) {
             const index_t next = ops.matrix().wrap(k + dir);
             if (dir < 0) {
               ops.up(k, {k}, src, mid);
               ops.left({next}, k, mid, dst);
             } else {
               ops.down(k, {k}, src, mid);
               ops.right({next}, k, mid, dst);
             }
           },
           [&](Panel block, index_t k) { out.slot(k, k) = stored(block); });
      sched::recycle(std::move(mid));
      break;
    }
  }
}

template <typename T>
SelectedInversion wrap(const pcyclic::BasicBlockOps<T>& ops,
                       const dense::BasicMatrix<T>& gtilde, Pattern pattern,
                       const Selection& sel, bool parallel) {
  const index_t n = ops.block_size();
  const index_t l = ops.num_blocks();
  const index_t b = sel.b();
  FSI_CHECK(gtilde.rows() == b * n && gtilde.cols() == b * n,
            "wrap: reduced inverse has wrong dimensions");
  FSI_CHECK(sel.l_total == l, "wrap: selection does not match the matrix");

  SelectedInversion out(pattern, n, sel);
  if (pattern == Pattern::Diagonal || !parallel) {
    // Diagonal: plain seed copies, not worth a parallel region.  Not
    // parallel: the pure-MKL comparator, serial walks on threaded kernels.
    for (index_t u = 0; u < b; ++u)
      wrap_panel(ops, gtilde, pattern, sel, out, u);
    return out;
  }
  // One thread per walk: the loop already fills the cores.
#pragma omp parallel for schedule(dynamic)
  for (index_t u = 0; u < b; ++u) {
    const dense::SerialKernels serial;
    wrap_panel(ops, gtilde, pattern, sel, out, u);
  }
  return out;
}

template void wrap_panel<double>(const pcyclic::BlockOps&,
                                 const dense::Matrix&, Pattern,
                                 const Selection&, SelectedInversion&, index_t);
template void wrap_panel<float>(const pcyclic::BlockOpsF&,
                                const dense::MatrixF&, Pattern,
                                const Selection&, SelectedInversion&, index_t);
template SelectedInversion wrap<double>(const pcyclic::BlockOps&,
                                        const dense::Matrix&, Pattern,
                                        const Selection&, bool);
template SelectedInversion wrap<float>(const pcyclic::BlockOpsF&,
                                       const dense::MatrixF&, Pattern,
                                       const Selection&, bool);

FsiEmit emit_fsi_tasks(sched::TaskGraph& graph, FsiGraphTask& task,
                       int owner_hint) {
  FSI_CHECK(task.m != nullptr && task.ops != nullptr,
            "emit_fsi_tasks: task needs a matrix and BlockOps");
  FSI_CHECK(&task.ops->matrix() == task.m,
            "emit_fsi_tasks: BlockOps must wrap the same matrix");
  FSI_CHECK(!task.patterns.empty(), "emit_fsi_tasks: need at least one pattern");
  const PCyclicMatrix& m = *task.m;
  const index_t l = m.num_blocks();
  const index_t c = task.sel.c;
  const index_t q = task.sel.q;
  FSI_CHECK(c > 0 && l % c == 0, "emit_fsi_tasks: c must divide L");
  FSI_CHECK(q >= 0 && q < c, "emit_fsi_tasks: q must be in [0, c)");
  FSI_CHECK(task.sel.l_total == l,
            "emit_fsi_tasks: selection does not match the matrix");
  const index_t b = task.sel.b();
  const index_t n = m.block_size();

  task.cls_blocks.assign(static_cast<std::size_t>(b), dense::Matrix());
  task.results.clear();
  task.results.reserve(task.patterns.size());
  for (Pattern p : task.patterns) task.results.emplace_back(p, n, task.sel);

  FsiGraphTask* t = &task;
  FsiEmit emit;
  std::vector<sched::NodeId> cls_nodes;
  cls_nodes.reserve(static_cast<std::size_t>(b));
  for (index_t i = 0; i < b; ++i) {
    cls_nodes.push_back(graph.add_node(
        [t, c, q, i](int) {
          FSI_OBS_SPAN("fsi.cls");
          t->cls_blocks[static_cast<std::size_t>(i)] =
              cluster_product(*t->m, c, q, i);
        },
        sched::Stage::Cls, owner_hint));
  }
  emit.bsofi = graph.add_node(
      [t](int) {
        FSI_OBS_SPAN("fsi.bsofi");
        t->flops_at_cls_end = util::flops::total();
        PCyclicMatrix reduced(std::move(t->cls_blocks));
        t->gtilde = bsofi::invert(reduced);
        reduced.release_blocks();  // the clustered products feed only BSOFI
        t->flops_at_bsofi_end = util::flops::total();
      },
      sched::Stage::Bsofi, owner_hint);
  for (sched::NodeId id : cls_nodes) graph.add_edge(id, emit.bsofi);

  for (std::size_t p = 0; p < task.patterns.size(); ++p) {
    const Pattern pat = task.patterns[p];
    for (index_t u = 0; u < b; ++u) {
      const sched::NodeId w = graph.add_node(
          [t, p, pat, u](int) {
            FSI_OBS_SPAN("fsi.wrap");
            const dense::SerialKernels serial;
            wrap_panel(*t->ops, t->gtilde, pat, t->sel, t->results[p], u);
          },
          sched::Stage::Wrap, owner_hint);
      graph.add_edge(emit.bsofi, w);
      emit.wrap_nodes.push_back(w);
    }
  }
  return emit;
}

namespace {

/// Resolve FsiOptions::Exec against the FSI_EXEC env flag.
bool use_graph(const FsiOptions& opts) {
  switch (opts.exec) {
    case FsiOptions::Exec::Graph: return true;
    case FsiOptions::Exec::OmpLoops: return false;
    case FsiOptions::Exec::Auto: break;
  }
  // coarse_parallel == false is the paper's pure-MKL comparator: serial
  // outer loops by definition, so the graph path never applies.
  return opts.coarse_parallel && obs::env_flag("FSI_EXEC", true);
}

/// Graph workers for a standalone fsi() call: FSI_EXEC_WORKERS, or the
/// caller's OMP team size (which a mini-MPI rank body has already had set
/// to its per-rank allotment — nested graphs stay within their share).
int graph_workers() {
  const long w = obs::env_long("FSI_EXEC_WORKERS", 0);
  return w > 0 ? static_cast<int>(w) : omp_get_max_threads();
}

/// Shared graph-mode driver of fsi() and fsi_multi(): emit, run on the
/// persistent pool, derive FsiStats from per-stage busy sums (span sums —
/// overlapped stages no longer double-count wall time) and the BSOFI node's
/// flop fences.
std::vector<SelectedInversion> fsi_graph_run(const PCyclicMatrix& m,
                                             const pcyclic::BlockOps& ops,
                                             const std::vector<Pattern>& patterns,
                                             const Selection& sel,
                                             FsiStats& stats) {
  const std::uint64_t f0 = util::flops::total();
  FsiGraphTask task;
  task.m = &m;
  task.ops = &ops;
  task.sel = sel;
  task.patterns = patterns;

  sched::TaskGraph graph;
  emit_fsi_tasks(graph, task);
  const sched::GraphStats gs = sched::Executor::instance().run_graph(
      graph, graph_workers(), sched::ExecOptions::from_env());
  const std::uint64_t f_end = util::flops::total();

  sched::recycle(std::move(task.gtilde));
  for (std::size_t i = 0; i < patterns.size(); ++i)
    residual_spot_check(m, task.results[i], patterns[i], sel);

  stats.q = sel.q;
  stats.seconds_cls = gs.of(sched::Stage::Cls).busy_seconds;
  stats.seconds_bsofi = gs.of(sched::Stage::Bsofi).busy_seconds;
  stats.seconds_wrap = gs.of(sched::Stage::Wrap).busy_seconds;
  stats.flops_cls = task.flops_at_cls_end - f0;
  stats.flops_bsofi = task.flops_at_bsofi_end - task.flops_at_cls_end;
  stats.flops_wrap = f_end - task.flops_at_bsofi_end;
  return std::move(task.results);
}

/// One mixed-precision attempt: fp32 CLS (promoted per product), fp64
/// BSOFI, fp32 WRP (promoted stores), then the health gate.  True when the
/// gate accepted; false (results discarded by the caller) when the run must
/// be redone in fp64.  Stage accounting goes into \p stats exactly like the
/// fp64 loop path's.
bool fsi_mixed_attempt(const PCyclicMatrix& m,
                       const std::vector<Pattern>& patterns,
                       const Selection& sel, bool coarse_parallel,
                       std::vector<SelectedInversion>& results,
                       FsiStats& stats) {
  obs::metrics::add(obs::metrics::Counter::MixedRuns, 1);
  const MixedGate gate = mixed_gate();

  PCyclicMatrix reduced = [&] {  // Stage 1: CLS in fp32.
    StageMeter meter("fsi.cls", stats.seconds_cls, stats.flops_cls);
    return cluster_mixed(m, sel.c, sel.q, coarse_parallel);
  }();
  dense::Matrix gtilde = [&] {  // Stage 2: BSOFI, always fp64.
    StageMeter meter("fsi.bsofi", stats.seconds_bsofi, stats.flops_bsofi);
    return bsofi::invert(reduced);
  }();
  // cond1 gate before any wrapping work: when the reduced matrix already
  // eats most of fp32's ~7 digits, the walks cannot recover.  (The value
  // also streams into Hist::Cond1Reduced via bsofi::invert.)
  const double cond1 = reduced_cond1(reduced, gtilde);
  reduced.release_blocks();
  if (!dense::all_finite(gtilde.view()) || !(cond1 <= gate.cond_max)) {
    sched::recycle(std::move(gtilde));
    return false;
  }

  {  // Stage 3: WRP in fp32 (BlockOpsF demote+invert is wrap work, like
     // the fp64 convenience overload attributes BlockOps).
    StageMeter meter("fsi.wrap", stats.seconds_wrap, stats.flops_wrap);
    const pcyclic::BlockOpsF opsf(m);
    dense::MatrixF gtilde_f = sched::acquire_f(gtilde.rows(), gtilde.cols());
    dense::demote(gtilde, gtilde_f.view());
    results.reserve(patterns.size());
    for (Pattern p : patterns)
      results.push_back(wrap(opsf, gtilde_f, p, sel, coarse_parallel));
    sched::recycle(std::move(gtilde_f));
  }
  sched::recycle(std::move(gtilde));

  // Residual gate: probe every checkable pattern (unconditionally — mixed
  // runs always pay the ~4 N^3 probe; it is what licenses the fp32 result).
  util::WallTimer health_timer;
  bool ok = true;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const double r = probe_residual(m, results[i], patterns[i], sel);
    if (r < 0.0) continue;  // pattern stores no adjacent blocks
    obs::health::record_residual(r);
    if (!(r <= gate.resid_max)) ok = false;  // catches NaN too
  }
  obs::metrics::add_seconds(obs::metrics::Accum::HealthCheck,
                            health_timer.seconds());
  return ok;
}

/// Mixed driver shared by fsi() and fsi_multi(): try fp32, fall back to
/// fp64 (counted + WARN-logged) when the gate trips or the fp32 inversion
/// dies on a singular block.  True = \p results holds the accepted mixed
/// run; false = caller must run the fp64 path (with \p stats freshly
/// zeroed here, mixed_fallback flagged).
bool fsi_mixed_try(const PCyclicMatrix& m, const std::vector<Pattern>& patterns,
                   const Selection& sel, const FsiOptions& opts,
                   std::vector<SelectedInversion>& results, FsiStats& stats) {
  const char* reason = "health_gate";
  bool ok = false;
  try {
    ok = fsi_mixed_attempt(m, patterns, sel, opts.coarse_parallel, results,
                           stats);
  } catch (const util::CheckError& e) {
    // e.g. a block singular at fp32 that is fine at fp64.
    reason = e.what();
    ok = false;
  }
  if (ok) {
    stats.precision_used = Precision::Mixed;
    return true;
  }
  obs::metrics::add(obs::metrics::Counter::MixedFallbacks, 1);
  FSI_LOG_WARN("fsi.mixed_fallback", {"reason", reason},
               {"resid_max", mixed_gate().resid_max},
               {"cond_max", mixed_gate().cond_max});
  results.clear();
  const index_t q = stats.q;
  stats = FsiStats{};
  stats.q = q;
  stats.mixed_fallback = true;
  stats.precision_used = Precision::Fp64;
  return false;
}

}  // namespace

SelectedInversion fsi(const PCyclicMatrix& m, const pcyclic::BlockOps& ops,
                      const FsiOptions& opts, util::Rng& rng, FsiStats* stats) {
  FSI_CHECK(&ops.matrix() == &m, "fsi: BlockOps must wrap the same matrix");
  const index_t c = opts.c;
  const index_t q =
      (opts.q >= 0) ? opts.q : static_cast<index_t>(rng.below(static_cast<std::uint64_t>(c)));
  Selection sel(m.num_blocks(), c, q);

  FsiStats local;
  local.q = q;

  if (opts.precision == Precision::Mixed) {
    std::vector<SelectedInversion> results;
    if (fsi_mixed_try(m, {opts.pattern}, sel, opts, results, local)) {
      if (stats != nullptr) *stats = local;
      return std::move(results.front());
    }
    // Gate tripped: fall through to the fp64 path below (loop or graph),
    // with local freshly zeroed and mixed_fallback flagged.
  }

  if (use_graph(opts)) {
    const bool fell_back = local.mixed_fallback;
    std::vector<SelectedInversion> results =
        fsi_graph_run(m, ops, {opts.pattern}, sel, local);
    local.mixed_fallback = fell_back;
    if (stats != nullptr) *stats = local;
    return std::move(results.front());
  }

  PCyclicMatrix reduced = [&] {  // Stage 1: CLS.
    StageMeter meter("fsi.cls", local.seconds_cls, local.flops_cls);
    return cluster(m, c, q, opts.coarse_parallel);
  }();
  dense::Matrix gtilde = [&] {  // Stage 2: BSOFI.
    StageMeter meter("fsi.bsofi", local.seconds_bsofi, local.flops_bsofi);
    return bsofi::invert(reduced);
  }();
  reduced.release_blocks();  // the clustered products feed only BSOFI
  SelectedInversion out = [&] {  // Stage 3: WRP.
    StageMeter meter("fsi.wrap", local.seconds_wrap, local.flops_wrap);
    return wrap(ops, gtilde, opts.pattern, sel, opts.coarse_parallel);
  }();
  sched::recycle(std::move(gtilde));
  residual_spot_check(m, out, opts.pattern, sel);

  if (stats != nullptr) *stats = local;
  return out;
}

SelectedInversion fsi(const PCyclicMatrix& m, const FsiOptions& opts,
                      util::Rng& rng, FsiStats* stats) {
  const index_t c = opts.c;
  const index_t q =
      (opts.q >= 0) ? opts.q : static_cast<index_t>(rng.below(static_cast<std::uint64_t>(c)));
  FsiOptions fixed = opts;
  fixed.q = q;

  FsiStats local;

  // BlockOps inversion feeds only the wrapping moves; attribute it there.
  double ops_seconds = 0.0;
  std::uint64_t ops_f = 0;
  std::unique_ptr<pcyclic::BlockOps> ops;
  {
    StageMeter meter("fsi.blockops", ops_seconds, ops_f);
    ops = std::make_unique<pcyclic::BlockOps>(m);
  }

  SelectedInversion out = fsi(m, *ops, fixed, rng, &local);
  local.seconds_wrap += ops_seconds;
  local.flops_wrap += ops_f;
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<SelectedInversion> fsi_multi(const PCyclicMatrix& m,
                                         const pcyclic::BlockOps& ops,
                                         const std::vector<Pattern>& patterns,
                                         const FsiOptions& opts, util::Rng& rng,
                                         FsiStats* stats) {
  FSI_CHECK(&ops.matrix() == &m, "fsi_multi: BlockOps must wrap the same matrix");
  FSI_CHECK(!patterns.empty(), "fsi_multi: need at least one pattern");
  const index_t c = opts.c;
  const index_t q =
      (opts.q >= 0) ? opts.q : static_cast<index_t>(rng.below(static_cast<std::uint64_t>(c)));
  Selection sel(m.num_blocks(), c, q);

  FsiStats local;
  local.q = q;

  if (opts.precision == Precision::Mixed) {
    std::vector<SelectedInversion> out;
    if (fsi_mixed_try(m, patterns, sel, opts, out, local)) {
      if (stats != nullptr) *stats = local;
      return out;
    }
  }

  if (use_graph(opts)) {
    std::vector<SelectedInversion> out = fsi_graph_run(m, ops, patterns, sel, local);
    if (stats != nullptr) *stats = local;
    return out;
  }

  PCyclicMatrix reduced = [&] {
    StageMeter meter("fsi.cls", local.seconds_cls, local.flops_cls);
    return cluster(m, c, q, opts.coarse_parallel);
  }();
  dense::Matrix gtilde = [&] {
    StageMeter meter("fsi.bsofi", local.seconds_bsofi, local.flops_bsofi);
    return bsofi::invert(reduced);
  }();
  reduced.release_blocks();

  std::vector<SelectedInversion> out;
  out.reserve(patterns.size());
  {
    StageMeter meter("fsi.wrap", local.seconds_wrap, local.flops_wrap);
    for (Pattern p : patterns)
      out.push_back(wrap(ops, gtilde, p, sel, opts.coarse_parallel));
  }
  sched::recycle(std::move(gtilde));
  for (std::size_t i = 0; i < patterns.size(); ++i)
    residual_spot_check(m, out[i], patterns[i], sel);

  if (stats != nullptr) *stats = local;
  return out;
}

dense::Matrix equal_time_block(const PCyclicMatrix& m, index_t k, index_t c) {
  FSI_OBS_SPAN("fsi.equal_time_block");
  const index_t l = m.num_blocks();
  FSI_CHECK(k >= 0 && k < l, "equal_time_block: block index out of range");
  FSI_CHECK(c > 0 && l % c == 0, "equal_time_block: c must divide L");
  // Choose q so that k is a selected (seed) index: (k + q + 1) % c == 0.
  const index_t q = m.wrap(-(k + 1)) % c;
  Selection sel(l, c, q);
  FSI_ASSERT(sel.contains(k));
  // Seed position of k among the selected indices.
  const index_t k0 = (k + q + 1) / c - 1;

  PCyclicMatrix reduced = cluster(m, c, q);
  bsofi::Bsofi factor(reduced);
  reduced.release_blocks();
  dense::Matrix row = factor.inverse_block_row(k0);
  factor.release_workspace();
  const index_t n = m.block_size();
  dense::Matrix out = dense::Matrix::copy_of(row.block(0, k0 * n, n, n));
  sched::recycle(std::move(row));
  return out;
}

double ComplexityModel::cls_flops() const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  return 2.0 * b() * (static_cast<double>(c) - 1.0) * n3;
}

double ComplexityModel::bsofi_flops() const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  return 7.0 * static_cast<double>(b()) * b() * n3;
}

double ComplexityModel::wrap_flops(Pattern pattern) const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  const double bd = static_cast<double>(b());
  const double cd = static_cast<double>(c);
  switch (pattern) {
    case Pattern::Diagonal:
      return 0.0;  // the seeds are the pattern
    case Pattern::SubDiagonal:
      return 2.0 * bd * n3;  // one adjacency move per seed
    case Pattern::Columns:
    case Pattern::Rows:
      // 3(bL - b^2)N^3 with L = bc.
      return 3.0 * (bd * (bd * cd) - bd * bd) * n3;
    case Pattern::AllDiagonals:
      return 4.0 * bd * (cd - 1.0) * n3;  // composed two-move diagonal steps
  }
  return 0.0;
}

double ComplexityModel::fsi_flops(Pattern pattern) const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  const double bd = static_cast<double>(b());
  const double cd = static_cast<double>(c);
  switch (pattern) {
    case Pattern::Diagonal:
      return (2.0 * (cd - 1.0) + 7.0 * bd) * bd * n3;
    case Pattern::SubDiagonal:
      return (2.0 * cd + 7.0 * bd) * bd * n3;
    case Pattern::Columns:
    case Pattern::Rows:
      return 3.0 * bd * bd * cd * n3;
    case Pattern::AllDiagonals:
      // CLS + BSOFI as for S1, plus ~4 N^3 per composed diagonal move.
      return (2.0 * (cd - 1.0) + 7.0 * bd) * bd * n3 +
             4.0 * bd * (cd - 1.0) * n3;
  }
  return 0.0;
}

double ComplexityModel::explicit_flops(Pattern pattern) const {
  const double n3 = static_cast<double>(n_block) * n_block * n_block;
  const double bd = static_cast<double>(b());
  const double cd = static_cast<double>(c);
  switch (pattern) {
    case Pattern::Diagonal:
      return 2.0 * bd * bd * cd * n3;
    case Pattern::SubDiagonal:
      return 4.0 * bd * bd * cd * n3;
    case Pattern::Columns:
    case Pattern::Rows:
      return bd * bd * bd * cd * cd * n3;
    case Pattern::AllDiagonals:
      // One W_k chain + inverse per diagonal block, L of them.
      return 2.0 * bd * bd * cd * cd * n3;
  }
  return 0.0;
}

}  // namespace fsi::selinv

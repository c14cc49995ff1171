#include "fsi/selinv/fsi.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <type_traits>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
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

/// Pool-backed fp64 copy of one block — what the reduced matrix and the
/// SelectedInversion slots hold (fp32 blocks are promoted on the way).
dense::Matrix stored(dense::ConstMatrixView src) {
  return sched::acquire_copy(src);
}
dense::Matrix stored(dense::ConstMatrixViewF src) {
  dense::Matrix out = sched::acquire(src.rows(), src.cols());
  dense::promote(src, out.view());
  return out;
}

}  // namespace

template <typename T>
dense::Matrix cluster_product(const PCyclicMatrix& m, index_t c, index_t q,
                              index_t i) {
  // Cluster i covers the c consecutive blocks ending at j0 = c(i+1)-q-1:
  //   B~_i = B[j0] B[j0-1] ... B[j0-c+1]  (indices cyclic).
  constexpr bool fp64 = std::is_same_v<T, double>;
  FSI_OBS_SPAN(fp64 ? "cls.cluster" : "cls.cluster_f");
  const index_t n = m.block_size();
  const index_t j_lo = c * i - q;  // j0 - c + 1
  // fp32 demotes every factor on the fly: each B block belongs to exactly
  // one cluster, so nothing is demoted twice.
  dense::BasicMatrix<T> demoted;
  if constexpr (!fp64) demoted = sched::acquire_f(n, n);
  auto factor = [&](index_t t) -> dense::BasicConstMatrixView<T> {
    const dense::ConstMatrixView b = m.b(m.wrap(j_lo + t));
    if constexpr (fp64) {
      return b;
    } else {
      dense::demote(b, demoted.view());
      return demoted;
    }
  };
  dense::BasicMatrix<T> prod = sched::acquire_as<T>(n, n);
  dense::copy(factor(0), prod.view());
  dense::BasicMatrix<T> next = sched::acquire_as<T>(n, n);
  for (index_t t = 1; t < c; ++t) {
    dense::gemm(dense::Trans::No, dense::Trans::No, T{1}, factor(t), prod,
                T{0}, next);
    std::swap(prod, next);
  }
  sched::recycle(std::move(demoted));
  sched::recycle(std::move(next));
  if constexpr (fp64) {
    return prod;
  } else {
    dense::Matrix promoted = stored(prod);
    sched::recycle(std::move(prod));
    return promoted;
  }
}

template <typename T>
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
    reduced.b_matrix(i) = cluster_product<T>(m, c, q, i);
  return reduced;
}

template dense::Matrix cluster_product<double>(const PCyclicMatrix&, index_t,
                                               index_t, index_t);
template dense::Matrix cluster_product<float>(const PCyclicMatrix&, index_t,
                                              index_t, index_t);
template PCyclicMatrix cluster<double>(const PCyclicMatrix&, index_t, index_t,
                                       bool);
template PCyclicMatrix cluster<float>(const PCyclicMatrix&, index_t, index_t,
                                      bool);

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

double seam_residual(const PCyclicMatrix& m, Pattern pattern,
                     const Selection& sel, index_t a,
                     dense::ConstMatrixView lo, dense::ConstMatrixView hi) {
  FSI_CHECK(pattern == Pattern::Columns || pattern == Pattern::Rows,
            "seam_residual: needs a Rows or Columns panel");
  const index_t n = m.block_size();
  const index_t b = sel.b();
  const bool cols = pattern == Pattern::Columns;
  FSI_CHECK(lo.rows() == (cols ? n : b * n) && lo.cols() == (cols ? b * n : n) &&
                hi.rows() == lo.rows() && hi.cols() == lo.cols(),
            "seam_residual: panel shape does not match the selection");
  const index_t next = m.wrap(a + 1);
  // Corner block: the +B_0 entry of M's first block row / last block column.
  const double sign = next == 0 ? 1.0 : -1.0;
  dense::Matrix r = sched::acquire_copy(cols ? hi : lo);
  index_t diag;  // the line whose selected block sits on G's diagonal
  if (cols) {
    // G(a+1, :) - B_{a+1} G(a, :) = delta I.
    dense::gemm(dense::Trans::No, dense::Trans::No, sign, m.b(next), lo, 1.0,
                r);
    diag = next;
  } else {
    // G(:, a) - G(:, a+1) B_{a+1} = delta I.
    dense::gemm(dense::Trans::No, dense::Trans::No, sign, hi, m.b(next), 1.0,
                r);
    diag = a;
  }
  const auto idx = sel.indices();
  for (index_t j = 0; j < b; ++j) {
    if (idx[j] != diag) continue;
    for (index_t d = 0; d < n; ++d)
      (cols ? r(d, j * n + d) : r(j * n + d, d)) -= 1.0;
  }
  const double worst = dense::max_abs(r.view());
  sched::recycle(std::move(r));
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

/// The process-wide gate cells, holding the MixedGate defaults until set.
struct GateCells {
  std::atomic<double> resid{MixedGate{}.resid_max};
  std::atomic<double> cond{MixedGate{}.cond_max};
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

const char* mixed_gate_reason(double cond1, dense::ConstMatrixView gtilde,
                              double worst_residual) {
  const MixedGate gate = mixed_gate();
  if (!(cond1 <= gate.cond_max)) return "cond1";
  if (!dense::all_finite(gtilde)) return "nonfinite";
  if (!(worst_residual < 0.0 || worst_residual <= gate.resid_max))
    return "residual";
  return nullptr;
}

void count_mixed_fallback(const char* reason, index_t task) {
  obs::metrics::add(obs::metrics::Counter::MixedFallbacks, 1);
  const MixedGate gate = mixed_gate();
  if (task < 0)
    FSI_LOG_WARN("fsi.mixed_fallback", {"reason", reason},
                 {"resid_max", gate.resid_max}, {"cond_max", gate.cond_max});
  else
    FSI_LOG_WARN("qmc.mixed_fallback", {"task", task}, {"reason", reason},
                 {"resid_max", gate.resid_max}, {"cond_max", gate.cond_max});
}

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
      walk_panels<T, 1>(
          ops.matrix(), {g.block(unit * n, 0, n, b * n)}, pos, up_steps,
          down_steps,
          [&](std::size_t, index_t at, index_t dir, Panel src, Out dst) {
            if (dir < 0)
              ops.up(at, idx, src, dst);
            else
              ops.down(at, idx, src, dst);
          },
          [&](index_t at, const std::array<Panel, 1>& panel) {
            for (index_t j = 0; j < b; ++j)
              out.slot(at, idx[j]) = stored(panel[0].block(0, j * n, n, n));
          });
      break;
    case Pattern::Rows:
      // Mirror of the column walk on block column `unit` of G~ (the b
      // seeds G(idx[j], pos) stacked), using the horizontal relations
      // (Eqs. 6/7).
      walk_panels<T, 1>(
          ops.matrix(), {g.block(0, unit * n, b * n, n)}, pos, up_steps,
          down_steps,
          [&](std::size_t, index_t at, index_t dir, Panel src, Out dst) {
            if (dir < 0)
              ops.left(idx, at, src, dst);
            else
              ops.right(idx, at, src, dst);
          },
          [&](index_t at, const std::array<Panel, 1>& panel) {
            for (index_t j = 0; j < b; ++j)
              out.slot(idx[j], at) = stored(panel[0].block(j * n, 0, n, n));
          });
      break;
    case Pattern::AllDiagonals: {
      // Diagonal walk of one seed by similarity transforms,
      //   up-left:    G(k-1, k-1) = B_k^-1 G(k, k) B_k,
      //   down-right: G(k+1, k+1) = B_{k+1} G(k, k) B_{k+1}^-1,
      // each composed from one vertical and one horizontal adjacency move
      // (the "Hirsch wrapping" for equal-time blocks).
      dense::BasicMatrix<T> mid = sched::acquire_as<T>(n, n);
      walk_panels<T, 1>(
          ops.matrix(), {g.block(unit * n, unit * n, n, n)}, pos, up_steps,
          down_steps,
          [&](std::size_t, index_t k, index_t dir, Panel src, Out dst) {
            const index_t next = ops.matrix().wrap(k + dir);
            if (dir < 0) {
              ops.up(k, {k}, src, mid);
              ops.left({next}, k, mid, dst);
            } else {
              ops.down(k, {k}, src, mid);
              ops.right({next}, k, mid, dst);
            }
          },
          [&](index_t k, const std::array<Panel, 1>& block) {
            out.slot(k, k) = stored(block[0]);
          });
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

namespace {

/// The three stages of Alg. 1, appending one result per pattern to \p out:
/// CLS at \p T, BSOFI in fp64, WRP at \p T (fp32 walks the demoted reduced
/// inverse with a BlockOpsF built here; its demote+invert is wrap work, as
/// the fp64 convenience overload attributes BlockOps).  Then the residual
/// probes of the Rows/Columns results: sampled at fp64, on every mixed run
/// (they are what licenses the fp32 result).  Returns the mixed gate's
/// verdict — taken on cond1 and finiteness before any walk, and on the
/// probes after them — or nullptr at fp64, which is not gated.
template <typename T>
const char* run_stages(const PCyclicMatrix& m, const pcyclic::BlockOps& ops,
                       const std::vector<Pattern>& patterns,
                       const Selection& sel, bool parallel,
                       std::vector<SelectedInversion>& out, FsiStats& stats) {
  constexpr bool mixed = std::is_same_v<T, float>;
  PCyclicMatrix reduced = [&] {
    StageMeter meter("fsi.cls", stats.seconds_cls, stats.flops_cls);
    return cluster<T>(m, sel.c, sel.q, parallel);
  }();
  dense::Matrix gtilde = [&] {
    StageMeter meter("fsi.bsofi", stats.seconds_bsofi, stats.flops_bsofi);
    return bsofi::invert(reduced);
  }();
  // A reduced matrix that already eats most of fp32's ~7 digits cannot be
  // recovered by the walks: gate it before any wrapping work.
  const double cond1 = mixed ? reduced_cond1(reduced, gtilde) : 0.0;
  reduced.release_blocks();
  if (const char* reason =
          mixed ? mixed_gate_reason(cond1, gtilde, -1.0) : nullptr) {
    sched::recycle(std::move(gtilde));
    return reason;
  }

  out.reserve(patterns.size());
  {
    StageMeter meter("fsi.wrap", stats.seconds_wrap, stats.flops_wrap);
    if constexpr (mixed) {
      const pcyclic::BlockOpsF ops_f(m);
      dense::MatrixF gtilde_f = sched::acquire_f(gtilde.rows(), gtilde.cols());
      dense::demote(gtilde, gtilde_f.view());
      for (Pattern p : patterns)
        out.push_back(wrap(ops_f, gtilde_f, p, sel, parallel));
      sched::recycle(std::move(gtilde_f));
    } else {
      for (Pattern p : patterns)
        out.push_back(wrap(ops, gtilde, p, sel, parallel));
    }
  }

  double worst = -1.0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (patterns[i] != Pattern::Columns && patterns[i] != Pattern::Rows)
      continue;
    if (!mixed && !obs::health::should_sample_residual()) continue;
    util::WallTimer health_timer;
    const double r = probe_residual(m, out[i], patterns[i], sel);
    obs::health::record_residual(r);
    obs::metrics::add_seconds(obs::metrics::Accum::HealthCheck,
                              health_timer.seconds());
    worst = std::isnan(r) ? r : std::max(worst, r);
  }
  const char* reason =
      mixed ? mixed_gate_reason(cond1, gtilde, worst) : nullptr;
  sched::recycle(std::move(gtilde));
  return reason;
}

}  // namespace

SelectedInversion fsi(const PCyclicMatrix& m, const pcyclic::BlockOps& ops,
                      const FsiOptions& opts, util::Rng& rng, FsiStats* stats) {
  return std::move(fsi_multi(m, ops, {opts.pattern}, opts, rng, stats).front());
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
  std::vector<SelectedInversion> out;
  if (opts.precision == Precision::Mixed) {
    obs::metrics::add(obs::metrics::Counter::MixedRuns, 1);
    std::string error;
    const char* reason = nullptr;
    try {
      reason = run_stages<float>(m, ops, patterns, sel, opts.coarse_parallel,
                                 out, local);
    } catch (const util::CheckError& e) {
      // e.g. a block singular at fp32 that is fine at fp64.
      error = e.what();
      reason = error.c_str();
    }
    if (reason == nullptr) {
      local.precision_used = Precision::Mixed;
      if (stats != nullptr) *stats = local;
      return out;
    }
    count_mixed_fallback(reason);
    out.clear();
    local = FsiStats{};
    local.q = q;
    local.mixed_fallback = true;
  }
  run_stages<double>(m, ops, patterns, sel, opts.coarse_parallel, out, local);
  if (stats != nullptr) *stats = local;
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

#include "fsi/qmc/multi_gf.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "fsi/obs/health.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/qmc/dqmc.hpp"
#include "fsi/sched/executor.hpp"
#include "fsi/sched/workspace_pool.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/util/flops.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::qmc {

namespace {

/// Per-spin node storage; bodies of different nodes write disjoint fields.
struct SpinWork {
  std::unique_ptr<pcyclic::PCyclicMatrix> mat;  ///< set by the Build node
  std::unique_ptr<pcyclic::BlockOps> ops;       ///< set by the Build node
  std::unique_ptr<pcyclic::BlockOpsF> ops_f;    ///< Build node, mixed only
  std::vector<dense::Matrix> cls_blocks;        ///< one per Cls node
  dense::Matrix gtilde;                         ///< set by the Bsofi node
  dense::MatrixF gtilde_f;                      ///< Bsofi node, mixed only
  double cond1 = 0.0;                           ///< Bsofi node, mixed only
  pcyclic::SelectedInversion diag;              ///< filled by Wrap nodes
  SpinWork(index_t nn, const pcyclic::Selection& sel)
      : diag(pcyclic::Pattern::AllDiagonals, nn, sel) {}
  /// The walk inputs at scalar T: fp32 for a mixed task, fp64 otherwise.
  template <typename T>
  const pcyclic::BasicBlockOps<T>& ops_at() const {
    if constexpr (std::is_same_v<T, float>) return *ops_f;
    else return *ops;
  }
  template <typename T>
  const dense::BasicMatrix<T>& gtilde_at() const {
    if constexpr (std::is_same_v<T, float>) return gtilde_f;
    else return gtilde;
  }
};

/// Panel p of a fused walk belongs to spin p / 2 (0 = up, 1 = down); an
/// even p is the row panel (block column u of G~: G(idx[j], line) stacked,
/// bN x N, moved left/right), an odd p the column panel (block row u:
/// G(line, idx[j]) side by side, N x bN, moved up/down).
constexpr std::size_t kPanels = 4;

/// fp64 copies of the first and last line of one fused walk, kept for the
/// seam residuals; a walk copies only the ends it is asked for.
struct WalkEnds {
  bool want_first = false, want_last = false;
  dense::Matrix first[kPanels];  ///< line idx[u] - floor((c-1)/2)
  dense::Matrix last[kPanels];   ///< line idx[u] + floor(c/2)
};

struct TaskWork {
  pcyclic::Selection sel;
  bool heavy;
  double sign;
  /// Heavy fp64 task picked by obs::health::should_sample_residual(): its
  /// measure node checks the seam between walks 0 and 1.
  bool sample_residual = false;
  SpinWork up, dn;
  /// Heavy tasks: SPXX class sums, b x L x dmax (see reduce_spxx), and pair
  /// susceptibility sums, b x L (see reduce_pair_susceptibility), written by
  /// the fused walk nodes.
  std::vector<double> spxx_sums, pair_sums;
  /// Heavy tasks with a seam check: one per walk (mixed tasks keep both
  /// ends of every walk, sampled fp64 tasks only the one seam's two lines).
  std::vector<WalkEnds> ends;
  TaskWork(const pcyclic::Selection& s, bool h, double sg, index_t nn)
      : sel(s), heavy(h), sign(sg), up(nn, s), dn(nn, s) {}
};

/// The fused node body: walk seed unit \p u's Rows and Columns panels of
/// both spins in lockstep at \p T (fp32 for a mixed task, fp64 otherwise
/// and for the gate's fallback), the same moves as selinv::wrap_panel, and
/// write each line's SPXX class sums and pair-susceptibility sums into
/// tw.spxx_sums / tw.pair_sums while the panels are in cache; nothing else
/// is stored.  fp32 panels are promoted first, so both are always summed in
/// fp64.  While tw.ends is set, the walk's first and/or last line is kept.
template <typename T>
void walk_and_measure(const Lattice& lat, TaskWork& tw, index_t u) {
  FSI_OBS_SPAN("fsi.wrap_spxx");
  using View = dense::BasicConstMatrixView<T>;
  const SpinWork* spins[2] = {&tw.up, &tw.dn};
  WalkEnds* ends =
      tw.ends.empty() ? nullptr : &tw.ends[static_cast<std::size_t>(u)];
  const pcyclic::Selection& sel = tw.sel;
  const pcyclic::PCyclicMatrix& m = *tw.up.mat;
  const index_t n = lat.num_sites();
  const index_t l = sel.l_total;
  const index_t b = sel.b();
  const index_t dmax = lat.num_distance_classes();
  const std::vector<index_t> idx = sel.indices();
  const index_t pos = idx[static_cast<std::size_t>(u)];
  const index_t up_steps = (sel.c - 1) / 2;
  const index_t down_steps = sel.c / 2;
  std::array<View, kPanels> seeds;
  for (std::size_t s = 0; s < 2; ++s) {
    const View g = spins[s]->gtilde_at<T>();
    seeds[2 * s] = g.block(0, u * n, b * n, n);
    seeds[2 * s + 1] = g.block(u * n, 0, n, b * n);
  }
  dense::Matrix promoted[kPanels];
  if constexpr (!std::is_same_v<T, double>) {
    for (std::size_t p = 0; p < kPanels; ++p)
      promoted[p] = sched::acquire(seeds[p].rows(), seeds[p].cols());
  }
  selinv::walk_panels<T, kPanels>(
      m, seeds, pos, up_steps, down_steps,
      [&](std::size_t p, index_t at, index_t dir, View src,
          dense::BasicMatrixView<T> dst) {
        const pcyclic::BasicBlockOps<T>& o = spins[p / 2]->ops_at<T>();
        if (p % 2 == 0) {
          if (dir < 0) o.left(idx, at, src, dst);
          else o.right(idx, at, src, dst);
        } else {
          if (dir < 0) o.up(at, idx, src, dst);
          else o.down(at, idx, src, dst);
        }
      },
      [&](index_t at, const std::array<View, kPanels>& line) {
        dense::ConstMatrixView g[kPanels];
        for (std::size_t p = 0; p < kPanels; ++p) {
          if constexpr (std::is_same_v<T, double>) {
            g[p] = line[p];
          } else {
            dense::promote(line[p], promoted[p].view());
            g[p] = promoted[p];
          }
        }
        // Pair (k = idx[j], at): G^up(k, at), G^dn(at, k), G^dn(k, at),
        // G^up(at, k).
        for (index_t j = 0; j < b; ++j) {
          const auto slot = static_cast<std::size_t>(j * l + at);
          spxx_block(lat, g[0].block(j * n, 0, n, n),
                     g[3].block(0, j * n, n, n), g[2].block(j * n, 0, n, n),
                     g[1].block(0, j * n, n, n),
                     tw.spxx_sums.data() +
                         slot * static_cast<std::size_t>(dmax));
          tw.pair_sums[slot] = pair_block(g[0].block(j * n, 0, n, n),
                                          g[2].block(j * n, 0, n, n));
        }
        if (ends == nullptr) return;
        for (std::size_t p = 0; p < kPanels; ++p) {
          if (ends->want_first && at == m.wrap(pos - up_steps))
            ends->first[p] = sched::acquire_copy(g[p]);
          if (ends->want_last && at == m.wrap(pos + down_steps))
            ends->last[p] = sched::acquire_copy(g[p]);
        }
      });
  for (dense::Matrix& p : promoted) sched::recycle(std::move(p));
}

/// Worst seam residual of one spin of a heavy task: for the first \p seams
/// walks u, its last line against the first line of walk u+1, in both
/// patterns.
double worst_seam_residual(const pcyclic::PCyclicMatrix& m, const TaskWork& tw,
                           std::size_t spin, index_t seams) {
  const pcyclic::Selection& sel = tw.sel;
  const index_t b = sel.b();
  const std::vector<index_t> idx = sel.indices();
  double worst = 0.0;
  for (index_t u = 0; u < seams; ++u) {
    const WalkEnds& lo = tw.ends[static_cast<std::size_t>(u)];
    const WalkEnds& hi = tw.ends[static_cast<std::size_t>((u + 1) % b)];
    const index_t a = m.wrap(idx[static_cast<std::size_t>(u)] + sel.c / 2);
    for (const std::size_t p : {2 * spin, 2 * spin + 1}) {
      const double r = selinv::seam_residual(
          m, p % 2 == 0 ? pcyclic::Pattern::Rows : pcyclic::Pattern::Columns,
          sel, a, lo.last[p], hi.first[p]);
      if (std::isnan(r)) return r;
      worst = std::max(worst, r);
    }
  }
  return worst;
}

/// Hand the kept walk ends back to the workspace pool; later walks of the
/// task (the mixed gate's fp64 fallback) then keep none.
void release_ends(TaskWork& tw) {
  for (WalkEnds& e : tw.ends) {
    for (std::size_t p = 0; p < kPanels; ++p) {
      sched::recycle(std::move(e.first[p]));
      sched::recycle(std::move(e.last[p]));
    }
  }
  tw.ends.clear();
}

}  // namespace

std::vector<Measurements> run_fsi_batch(const HubbardModel& model,
                                        const std::vector<FsiBatchTask>& tasks,
                                        const FsiBatchOptions& options,
                                        SchedSummary* sched_out) {
  const index_t l = model.params().l;
  const index_t n = model.num_sites();
  const auto m_total = static_cast<index_t>(tasks.size());
  FSI_CHECK(m_total > 0, "run_fsi_batch: need at least one task");
  const index_t c = (options.cluster_size > 0) ? options.cluster_size
                                               : default_cluster_size(l);
  FSI_CHECK(l % c == 0, "run_fsi_batch: cluster size must divide L");
  for (const FsiBatchTask& task : tasks) {
    FSI_CHECK(task.field.num_slices() == l && task.field.num_sites() == n,
              "run_fsi_batch: field dimensions must match the model");
    FSI_CHECK(task.q >= 0 && task.q < c, "run_fsi_batch: q out of [0, c)");
  }
  int workers = options.num_workers > 0 ? options.num_workers
                                        : omp_get_max_threads();
  if (workers < 1) workers = 1;
  const index_t dmax = model.lattice().num_distance_classes();
  const Lattice& lat = model.lattice();

  // Static owner of each task: the contiguous split [w*T/W, (w+1)*T/W) of
  // the paper's Alg. 3.  Idle workers then steal a straggler task's
  // remaining nodes (down to single panel walks).
  std::vector<int> owner(static_cast<std::size_t>(m_total), 0);
  for (int w = 0; w < workers; ++w) {
    const auto lo = static_cast<index_t>(
        static_cast<std::uint64_t>(m_total) * static_cast<std::uint64_t>(w) /
        static_cast<std::uint64_t>(workers));
    const auto hi = static_cast<index_t>(
        static_cast<std::uint64_t>(m_total) * (static_cast<std::uint64_t>(w) + 1) /
        static_cast<std::uint64_t>(workers));
    for (index_t t = lo; t < hi; ++t) owner[static_cast<std::size_t>(t)] = w;
  }

  const bool mixed = options.precision == Precision::Mixed;
  // Mixed-task telemetry, accumulated by the gate nodes.
  std::atomic<std::uint32_t> mixed_tasks{0};
  std::atomic<std::uint32_t> mixed_fallbacks{0};

  std::vector<std::unique_ptr<TaskWork>> work;
  work.reserve(static_cast<std::size_t>(m_total));
  // One result slot per task: the Measure nodes write disjoint entries, so
  // the per-task accumulation order is fixed and worker-count independent.
  std::vector<Measurements> results(static_cast<std::size_t>(m_total),
                                    Measurements(l, dmax));

  sched::TaskGraph graph;
  for (index_t t = 0; t < m_total; ++t) {
    const FsiBatchTask& task = tasks[static_cast<std::size_t>(t)];
    const pcyclic::Selection sel(l, c, task.q);
    work.push_back(std::make_unique<TaskWork>(sel, task.heavy, task.sign, n));
    TaskWork* tw = work.back().get();
    const int hint = owner[static_cast<std::size_t>(t)];
    const index_t b = sel.b();
    const index_t q = task.q;

    std::vector<sched::NodeId> fences;  // every walk node of the task
    sched::NodeId bsofi_nodes[2];
    for (SpinWork* sw : {&tw->up, &tw->dn}) {
      const Spin spin = (sw == &tw->up) ? Spin::Up : Spin::Down;
      const sched::NodeId build = graph.add_node(
          [&model, &task, sw, spin, mixed](int) {
            FSI_OBS_SPAN("qmc.build_m");
            sw->mat = std::make_unique<pcyclic::PCyclicMatrix>(
                model.build_m(task.field, spin));
            // Mixed tasks invert fp32; the fp64 BlockOps is built lazily by
            // the gate node only when the task falls back.
            if (mixed)
              sw->ops_f = std::make_unique<pcyclic::BlockOpsF>(*sw->mat);
            else
              sw->ops = std::make_unique<pcyclic::BlockOps>(*sw->mat);
          },
          sched::Stage::Build, hint);

      sw->cls_blocks.assign(static_cast<std::size_t>(b), dense::Matrix());
      std::vector<sched::NodeId> cls_nodes;
      cls_nodes.reserve(static_cast<std::size_t>(b));
      for (index_t i = 0; i < b; ++i) {
        const sched::NodeId id = graph.add_node(
            [sw, c, q, i, mixed](int) {
              FSI_OBS_SPAN("fsi.cls");
              sw->cls_blocks[static_cast<std::size_t>(i)] =
                  mixed ? selinv::cluster_product<float>(*sw->mat, c, q, i)
                        : selinv::cluster_product<double>(*sw->mat, c, q, i);
            },
            sched::Stage::Cls, hint);
        graph.add_edge(build, id);
        cls_nodes.push_back(id);
      }
      const sched::NodeId bsofi_node = graph.add_node(
          [sw, mixed](int) {
            FSI_OBS_SPAN("fsi.bsofi");
            pcyclic::PCyclicMatrix reduced(std::move(sw->cls_blocks));
            sw->gtilde = bsofi::invert(reduced);
            if (mixed) {
              sw->cond1 = selinv::reduced_cond1(reduced, sw->gtilde);
              sw->gtilde_f =
                  sched::acquire_f(sw->gtilde.rows(), sw->gtilde.cols());
              dense::demote(sw->gtilde, sw->gtilde_f.view());
            }
            reduced.release_blocks();
          },
          sched::Stage::Bsofi, hint);
      for (sched::NodeId id : cls_nodes) graph.add_edge(id, bsofi_node);
      bsofi_nodes[spin == Spin::Up ? 0 : 1] = bsofi_node;

      // The equal-time walks: b diagonal walks per spin, stored.
      for (index_t u = 0; u < b; ++u) {
        const sched::NodeId id = graph.add_node(
            [sw, tw, u, mixed](int) {
              FSI_OBS_SPAN("fsi.wrap");
              if (mixed)
                selinv::wrap_panel(*sw->ops_f, sw->gtilde_f,
                                   pcyclic::Pattern::AllDiagonals, tw->sel,
                                   sw->diag, u);
              else
                selinv::wrap_panel(*sw->ops, sw->gtilde,
                                   pcyclic::Pattern::AllDiagonals, tw->sel,
                                   sw->diag, u);
            },
            sched::Stage::Wrap, hint);
        graph.add_edge(bsofi_node, id);
        fences.push_back(id);
      }
    }

    // Heavy tasks: one fused node per seed unit walks the Rows and Columns
    // panels of both spins and sums SPXX and the pair susceptibility line by
    // line; no block is stored.  Mixed tasks keep every walk's ends for the
    // gate; a sampled fp64 task keeps only the seam between walks 0 and 1.
    if (tw->heavy) {
      tw->spxx_sums.assign(
          static_cast<std::size_t>(b * l) * static_cast<std::size_t>(dmax),
          0.0);
      tw->pair_sums.assign(static_cast<std::size_t>(b * l), 0.0);
      if (mixed) {
        tw->ends.resize(static_cast<std::size_t>(b));
        for (WalkEnds& e : tw->ends) e.want_first = e.want_last = true;
      } else if (obs::health::should_sample_residual()) {
        tw->sample_residual = true;
        tw->ends.resize(static_cast<std::size_t>(b));
        tw->ends[0].want_last = true;
        tw->ends[static_cast<std::size_t>(1 % b)].want_first = true;
      }
      for (index_t u = 0; u < b; ++u) {
        const sched::NodeId id = graph.add_node(
            [&lat, tw, u, mixed](int) {
              if (mixed)
                walk_and_measure<float>(lat, *tw, u);
              else
                walk_and_measure<double>(lat, *tw, u);
            },
            sched::Stage::Wrap, hint);
        graph.add_edge(bsofi_nodes[0], id);
        graph.add_edge(bsofi_nodes[1], id);
        fences.push_back(id);
      }
    }

    // Mixed tasks get a gate node between the walk fences and the
    // measurement: selinv::mixed_gate_reason on cond1, finiteness and
    // (heavy tasks) the seam residuals of both spins; on a trip, recompute
    // the whole task serially in fp64 in-node, so the measurement
    // downstream always consumes gated data.
    sched::NodeId gate_node = 0;
    if (mixed) {
      gate_node = graph.add_node(
          [&lat, tw, t, c, q, &mixed_tasks, &mixed_fallbacks](int) {
            FSI_OBS_SPAN("fsi.mixed_gate");
            mixed_tasks.fetch_add(1, std::memory_order_relaxed);
            obs::metrics::add(obs::metrics::Counter::MixedRuns, 1);
            const char* reason = nullptr;
            for (std::size_t s = 0; s < 2 && reason == nullptr; ++s) {
              const SpinWork& sw = s == 0 ? tw->up : tw->dn;
              reason = selinv::mixed_gate_reason(sw.cond1, sw.gtilde, -1.0);
              if (reason != nullptr || !tw->heavy) continue;
              const double r =
                  worst_seam_residual(*sw.mat, *tw, s, tw->sel.b());
              obs::health::record_residual(r);
              reason = selinv::mixed_gate_reason(sw.cond1, sw.gtilde, r);
            }
            // fp32 context is spent either way.
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              sched::recycle(std::move(s->gtilde_f));
              s->ops_f.reset();
            }
            release_ends(*tw);
            if (reason == nullptr) return;
            mixed_fallbacks.fetch_add(1, std::memory_order_relaxed);
            selinv::count_mixed_fallback(reason, t);
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              s->ops = std::make_unique<pcyclic::BlockOps>(*s->mat);
              pcyclic::PCyclicMatrix reduced =
                  selinv::cluster<double>(*s->mat, c, q, false);
              sched::recycle(std::move(s->gtilde));
              s->gtilde = bsofi::invert(reduced);
              reduced.release_blocks();
              s->diag.release_blocks();
              s->diag = selinv::wrap(*s->ops, s->gtilde,
                                     pcyclic::Pattern::AllDiagonals, tw->sel,
                                     false);
            }
            if (!tw->heavy) return;
            for (index_t u = 0; u < tw->sel.b(); ++u)
              walk_and_measure<double>(lat, *tw, u);
          },
          sched::Stage::Measure, hint);
      for (sched::NodeId id : fences) graph.add_edge(id, gate_node);
    }

    // The per-task Measure node: the sampled seam check, then serial
    // accumulation into this task's result slot (fixed floating-point
    // order, weighted by the task's sign), then recycle/release everything
    // back to the workspace pool.
    const sched::NodeId measure = graph.add_node(
        [&model, &results, tw, t](int) {
          FSI_OBS_SPAN("qmc.measure");
          if (tw->sample_residual) {
            util::WallTimer health_timer;
            for (std::size_t s = 0; s < 2; ++s)
              obs::health::record_residual(worst_seam_residual(
                  *(s == 0 ? tw->up : tw->dn).mat, *tw, s, 1));
            release_ends(*tw);
            obs::metrics::add_seconds(obs::metrics::Accum::HealthCheck,
                                      health_timer.seconds());
          }
          sched::recycle(std::move(tw->up.gtilde));
          sched::recycle(std::move(tw->dn.gtilde));
          Measurements& task_meas = results[static_cast<std::size_t>(t)];
          const double sign = tw->sign;
          task_meas.add_sample(sign);
          accumulate_equal_time(model.lattice(), tw->up.diag, tw->dn.diag,
                                model.params().t, sign, false, task_meas);
          if (tw->heavy) {
            reduce_spxx(model.lattice(), tw->sel, tw->spxx_sums, sign,
                        task_meas);
            reduce_pair_susceptibility(model.lattice(), tw->sel,
                                       tw->pair_sums, model.params().dtau(),
                                       sign, task_meas);
          }
          std::vector<double>().swap(tw->spxx_sums);
          std::vector<double>().swap(tw->pair_sums);
          for (SpinWork* s : {&tw->up, &tw->dn}) {
            s->diag.release_blocks();
            s->ops.reset();
            s->mat.reset();
          }
        },
        sched::Stage::Measure, hint);
    if (mixed)
      graph.add_edge(gate_node, measure);
    else
      for (sched::NodeId id : fences) graph.add_edge(id, measure);
  }

  // By default the graph workers share the OpenMP threads evenly, so a
  // node's kernels never open a team on top of busy workers: one thread
  // each when the workers already fill the cores.
  const int omp_threads = options.omp_threads_per_worker > 0
                              ? options.omp_threads_per_worker
                              : std::max(1, omp_get_max_threads() / workers);
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(graph, workers, omp_threads);

  if (sched_out != nullptr) {
    sched_out->workers = workers;
    sched_out->tasks = static_cast<std::uint32_t>(m_total);
    sched_out->steal_batches = gs.steal_batches;
    sched_out->stolen_tasks = gs.stolen_nodes;
    sched_out->busy_max_seconds = gs.busy_max_seconds;
    sched_out->busy_mean_seconds = gs.busy_mean_seconds;
    sched_out->busy_seconds = gs.busy_seconds;
    sched_out->graph_nodes = gs.nodes;
    sched_out->critical_path_seconds = gs.critical_path_seconds;
    sched_out->ready_depth_mean = gs.ready_depth_mean;
    sched_out->stage_build_seconds = gs.of(sched::Stage::Build).busy_seconds;
    sched_out->stage_cls_seconds = gs.of(sched::Stage::Cls).busy_seconds;
    sched_out->stage_bsofi_seconds = gs.of(sched::Stage::Bsofi).busy_seconds;
    sched_out->stage_wrap_seconds = gs.of(sched::Stage::Wrap).busy_seconds;
    sched_out->stage_measure_seconds =
        gs.of(sched::Stage::Measure).busy_seconds;
    sched_out->mixed_tasks = mixed_tasks.load(std::memory_order_relaxed);
    sched_out->mixed_fallbacks =
        mixed_fallbacks.load(std::memory_order_relaxed);
  }
  return results;
}

MultiGfResult run_parallel_fsi(const HubbardModel& model,
                               const MultiGfOptions& options) {
  const index_t l = model.params().l;
  const index_t n = model.num_sites();
  const index_t m_total = options.num_matrices;
  FSI_CHECK(options.num_ranks > 0, "run_parallel_fsi: need at least one worker");
  FSI_CHECK(m_total > 0, "run_parallel_fsi: need at least one matrix");
  const index_t c = (options.cluster_size > 0) ? options.cluster_size
                                               : default_cluster_size(l);
  FSI_CHECK(l % c == 0, "run_parallel_fsi: cluster size must divide L");
  const index_t dmax = model.lattice().num_distance_classes();

  // Tasks [0, heavy_cutoff) run the full three-pattern wrap + SPXX; the rest
  // measure equal-time only.  With the contiguous static split the heavy
  // front chunk lands on the low workers — the skew stealing rebalances.
  const double frac = std::clamp(options.heavy_fraction, 0.0, 1.0);
  const index_t heavy_cutoff =
      options.measure_time_dependent
          ? static_cast<index_t>(
                std::ceil(frac * static_cast<double>(m_total)))
          : 0;

  // All fields come from one sequential stream seeded by options.seed (the
  // paper's root rank), each task's q from (seed, task index) alone.
  std::vector<FsiBatchTask> tasks;
  tasks.reserve(static_cast<std::size_t>(m_total));
  util::Rng root_rng(options.seed);
  for (index_t t = 0; t < m_total; ++t)
    tasks.push_back(FsiBatchTask{HsField(l, n, root_rng), 0, t < heavy_cutoff});
  for (index_t t = 0; t < m_total; ++t) {
    util::Rng task_rng(options.seed, static_cast<std::uint64_t>(t) + 1);
    tasks[static_cast<std::size_t>(t)].q =
        static_cast<index_t>(task_rng.below(static_cast<std::uint64_t>(c)));
  }

  FsiBatchOptions batch_opts;
  batch_opts.num_workers = options.num_ranks;
  batch_opts.omp_threads_per_worker = options.omp_threads_per_rank;
  batch_opts.cluster_size = c;

  auto& pool = sched::WorkspacePool::global();
  const std::uint64_t pool_hits0 = pool.hits();
  const std::uint64_t pool_misses0 = pool.misses();
  MultiGfResult result{Measurements(l, dmax), 0.0, 0, SchedSummary{}};
  util::flops::reset();
  util::WallTimer timer;
  const std::vector<Measurements> per_task =
      run_fsi_batch(model, tasks, batch_opts, &result.sched);
  for (const Measurements& m : per_task) result.global.merge(m);
  result.seconds = timer.seconds();
  result.flops = util::flops::total();
  result.sched.pool_hits = pool.hits() - pool_hits0;
  result.sched.pool_misses = pool.misses() - pool_misses0;
  return result;
}

}  // namespace fsi::qmc

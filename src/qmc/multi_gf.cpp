#include "fsi/qmc/multi_gf.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>

#include "fsi/dense/norms.hpp"
#include "fsi/mpi/minimpi.hpp"
#include "fsi/obs/env.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/qmc/dqmc.hpp"
#include "fsi/sched/executor.hpp"
#include "fsi/sched/scheduler.hpp"
#include "fsi/sched/workspace_pool.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/util/flops.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::qmc {

namespace {

/// Tag for the (task index, measurement payload) records sent to the root.
constexpr int kTagTaskResults = 7;

bool use_fine_granularity(const MultiGfOptions& options) {
  switch (options.granularity) {
    case Granularity::Fine: return true;
    case Granularity::Coarse: return false;
    case Granularity::Auto: break;
  }
  return obs::env_flag("FSI_EXEC", true);
}

/// Fine-granularity path: generate the batch's fields and offsets from the
/// run seed — the same (seed)-keyed streams the coarse path broadcasts —
/// then lower everything onto the shared run_fsi_batch graph engine and
/// merge the per-task measurements in ascending task order.  Outputs are
/// disjoint per node and the merge is task-ordered, so the result is
/// bit-identical to the coarse path.
void run_fine_granularity(const HubbardModel& model,
                          const MultiGfOptions& options, index_t c,
                          index_t heavy_cutoff, MultiGfResult& result) {
  const index_t l = model.params().l;
  const index_t n = model.num_sites();
  const index_t m_total = options.num_matrices;
  const index_t dmax = model.lattice().num_distance_classes();

  // The caller stands in for the root rank: all fields come from one
  // sequential stream, each task's q from (seed, task index) alone.
  std::vector<FsiBatchTask> tasks;
  tasks.reserve(static_cast<std::size_t>(m_total));
  util::Rng root_rng(options.seed);
  for (index_t t = 0; t < m_total; ++t)
    tasks.push_back(FsiBatchTask{HsField(l, n, root_rng), 0, false});
  for (index_t t = 0; t < m_total; ++t) {
    util::Rng task_rng(options.seed, static_cast<std::uint64_t>(t) + 1);
    tasks[static_cast<std::size_t>(t)].q =
        static_cast<index_t>(task_rng.below(static_cast<std::uint64_t>(c)));
    tasks[static_cast<std::size_t>(t)].heavy = t < heavy_cutoff;
  }

  FsiBatchOptions batch_opts;
  batch_opts.num_workers = options.num_ranks;
  batch_opts.omp_threads_per_worker = options.omp_threads_per_rank;
  batch_opts.cluster_size = c;
  batch_opts.schedule = options.schedule;
  const std::vector<Measurements> per_task =
      run_fsi_batch(model, tasks, batch_opts, &result.sched);

  Measurements global(l, dmax);
  for (const Measurements& m : per_task) global.merge(m);
  result.global = global;
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

  // Static owner of each task: the BatchScheduler contiguous preload split,
  // so with stealing disabled the placement is exactly the static baseline;
  // with stealing on, idle workers pick up a straggler task's remaining
  // panel walks, which whole-matrix scheduling could never migrate.
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

  /// Per-spin node storage; bodies of different nodes write disjoint fields.
  struct SpinWork {
    std::unique_ptr<pcyclic::PCyclicMatrix> mat;  ///< set by the Build node
    std::unique_ptr<pcyclic::BlockOps> ops;       ///< set by the Build node
    std::unique_ptr<pcyclic::BlockOpsF> ops_f;    ///< Build node, mixed only
    std::vector<dense::Matrix> cls_blocks;        ///< one per Cls node
    dense::Matrix gtilde;                         ///< set by the Bsofi node
    dense::MatrixF gtilde_f;                      ///< Bsofi node, mixed only
    double cond1 = 0.0;                           ///< Bsofi node, mixed only
    pcyclic::SelectedInversion diag, rows, cols;  ///< filled by Wrap nodes
    SpinWork(index_t nn, const pcyclic::Selection& sel)
        : diag(pcyclic::Pattern::AllDiagonals, nn, sel),
          rows(pcyclic::Pattern::Rows, nn, sel),
          cols(pcyclic::Pattern::Columns, nn, sel) {}
  };
  struct TaskWork {
    pcyclic::Selection sel;
    bool heavy;
    SpinWork up, dn;
    TaskWork(const pcyclic::Selection& s, bool h, index_t nn)
        : sel(s), heavy(h), up(nn, s), dn(nn, s) {}
  };

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
    work.push_back(std::make_unique<TaskWork>(sel, task.heavy, n));
    TaskWork* tw = work.back().get();
    const int hint = owner[static_cast<std::size_t>(t)];
    const index_t b = sel.b();
    const index_t q = task.q;

    std::vector<sched::NodeId> fences;  // all wrap nodes of both spins
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
              dense::Matrix& slot = sw->cls_blocks[static_cast<std::size_t>(i)];
              if (mixed) {
                dense::MatrixF prod =
                    selinv::cluster_product_f(*sw->mat, c, q, i);
                slot = sched::acquire(prod.rows(), prod.cols());
                dense::promote(prod, slot.view());
                sched::recycle(std::move(prod));
              } else {
                slot = selinv::cluster_product(*sw->mat, c, q, i);
              }
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
            if (mixed)
              sw->cond1 = selinv::reduced_cond1(reduced, sw->gtilde);
            reduced.release_blocks();
            if (mixed) {
              sw->gtilde_f =
                  sched::acquire_f(sw->gtilde.rows(), sw->gtilde.cols());
              dense::demote(sw->gtilde, sw->gtilde_f.view());
            }
          },
          sched::Stage::Bsofi, hint);
      for (sched::NodeId id : cls_nodes) graph.add_edge(id, bsofi_node);

      auto emit_wrap = [&](pcyclic::Pattern pat,
                           pcyclic::SelectedInversion* out) {
        for (index_t u = 0; u < b; ++u) {
          const sched::NodeId id = graph.add_node(
              [sw, tw, pat, out, u, mixed](int) {
                FSI_OBS_SPAN("fsi.wrap");
                if (mixed)
                  selinv::wrap_panel(*sw->ops_f, sw->gtilde_f, pat, tw->sel,
                                     *out, u);
                else
                  selinv::wrap_panel(*sw->ops, sw->gtilde, pat, tw->sel, *out,
                                     u);
              },
              sched::Stage::Wrap, hint);
          graph.add_edge(bsofi_node, id);
          fences.push_back(id);
        }
      };
      emit_wrap(pcyclic::Pattern::AllDiagonals, &sw->diag);
      if (tw->heavy) {
        emit_wrap(pcyclic::Pattern::Rows, &sw->rows);
        emit_wrap(pcyclic::Pattern::Columns, &sw->cols);
      }
    }

    // Mixed tasks get a gate node between the wrap fences and the
    // measurement: check cond1, finiteness and (heavy tasks) the probed
    // residual of both spins against selinv::mixed_gate(); on a trip,
    // recompute the whole task serially in fp64 in-node, so the measurement
    // downstream always consumes gated data.
    sched::NodeId gate_node = 0;
    if (mixed) {
      gate_node = graph.add_node(
          [tw, t, c, q, &mixed_tasks, &mixed_fallbacks](int) {
            FSI_OBS_SPAN("fsi.mixed_gate");
            mixed_tasks.fetch_add(1, std::memory_order_relaxed);
            obs::metrics::add(obs::metrics::Counter::MixedRuns, 1);
            const selinv::MixedGate gate = selinv::mixed_gate();
            const char* reason = nullptr;
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              if (!(s->cond1 <= gate.cond_max)) reason = "cond1";
              else if (!dense::all_finite(s->gtilde.view()))
                reason = "nonfinite";
              else if (tw->heavy) {
                for (const pcyclic::SelectedInversion* out :
                     {&s->rows, &s->cols}) {
                  const double r = selinv::probe_residual(
                      *s->mat, *out, out->pattern(), tw->sel);
                  if (r >= 0.0) obs::health::record_residual(r);
                  if (!(r <= gate.resid_max)) reason = "residual";
                }
              }
              if (reason != nullptr) break;
            }
            // fp32 context is spent either way.
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              sched::recycle(std::move(s->gtilde_f));
              s->ops_f.reset();
            }
            if (reason == nullptr) return;
            mixed_fallbacks.fetch_add(1, std::memory_order_relaxed);
            obs::metrics::add(obs::metrics::Counter::MixedFallbacks, 1);
            FSI_LOG_WARN("qmc.mixed_fallback", {"task", t}, {"reason", reason},
                         {"resid_max", gate.resid_max},
                         {"cond_max", gate.cond_max});
            for (SpinWork* s : {&tw->up, &tw->dn}) {
              s->ops = std::make_unique<pcyclic::BlockOps>(*s->mat);
              pcyclic::PCyclicMatrix reduced =
                  selinv::cluster(*s->mat, c, q, false);
              sched::recycle(std::move(s->gtilde));
              s->gtilde = bsofi::invert(reduced);
              reduced.release_blocks();
              s->diag.release_blocks();
              s->diag = selinv::wrap(*s->ops, s->gtilde,
                                     pcyclic::Pattern::AllDiagonals, tw->sel,
                                     false);
              if (tw->heavy) {
                s->rows.release_blocks();
                s->rows = selinv::wrap(*s->ops, s->gtilde,
                                       pcyclic::Pattern::Rows, tw->sel, false);
                s->cols.release_blocks();
                s->cols = selinv::wrap(*s->ops, s->gtilde,
                                       pcyclic::Pattern::Columns, tw->sel,
                                       false);
              }
            }
          },
          sched::Stage::Measure, hint);
      for (sched::NodeId id : fences) graph.add_edge(id, gate_node);
    }

    // The per-task Measure node: serial accumulation into this task's
    // result slot (fixed floating-point order), then recycle/release
    // everything back to the workspace pool.
    const sched::NodeId measure = graph.add_node(
        [&model, &results, tw, t](int) {
          FSI_OBS_SPAN("qmc.measure");
          sched::recycle(std::move(tw->up.gtilde));
          sched::recycle(std::move(tw->dn.gtilde));
          Measurements& task_meas = results[static_cast<std::size_t>(t)];
          task_meas.add_sample(1.0);
          accumulate_equal_time(model.lattice(), tw->up.diag, tw->dn.diag,
                                model.params().t, 1.0, false, task_meas);
          if (tw->heavy)
            accumulate_spxx(model.lattice(), tw->up.rows, tw->up.cols,
                            tw->dn.rows, tw->dn.cols, 1.0, false, task_meas);
          for (SpinWork* s : {&tw->up, &tw->dn}) {
            s->diag.release_blocks();
            s->rows.release_blocks();
            s->cols.release_blocks();
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

  sched::ExecOptions exec_opts = sched::ExecOptions::from_env();
  if (options.schedule == Schedule::Static) exec_opts.work_stealing = false;
  // By default the graph workers share the OpenMP threads evenly, so a
  // node's kernels never open a team on top of busy workers: one thread
  // each when the workers already fill the cores.
  exec_opts.omp_threads =
      options.omp_threads_per_worker > 0
          ? options.omp_threads_per_worker
          : std::max(1, omp_get_max_threads() / workers);
  const sched::GraphStats gs =
      sched::Executor::instance().run_graph(graph, workers, exec_opts);

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
  const int ranks = options.num_ranks;
  FSI_CHECK(ranks > 0, "run_parallel_fsi: need at least one rank");
  FSI_CHECK(m_total > 0, "run_parallel_fsi: need at least one matrix");
  const index_t c = (options.cluster_size > 0) ? options.cluster_size
                                               : default_cluster_size(l);
  FSI_CHECK(l % c == 0, "run_parallel_fsi: cluster size must divide L");
  const std::size_t field_len = static_cast<std::size_t>(l) * n;
  const index_t dmax = model.lattice().num_distance_classes();
  const std::size_t payload_len = Measurements::serialized_size(l, dmax);
  const std::size_t record_len = 1 + payload_len;  // [task index, payload]

  // Tasks [0, heavy_cutoff) run the full three-pattern wrap + SPXX; the rest
  // measure equal-time only.  With the contiguous static preload the heavy
  // front chunk lands on the low ranks — the skew the scheduler rebalances.
  const double frac = std::clamp(options.heavy_fraction, 0.0, 1.0);
  const index_t heavy_cutoff =
      options.measure_time_dependent
          ? static_cast<index_t>(
                std::ceil(frac * static_cast<double>(m_total)))
          : 0;

  auto& pool = sched::WorkspacePool::global();
  const std::uint64_t pool_hits0 = pool.hits();
  const std::uint64_t pool_misses0 = pool.misses();

  MultiGfResult result{Measurements(l, dmax), 0.0, 0, SchedSummary{}};
  util::flops::reset();
  util::WallTimer timer;

  if (use_fine_granularity(options)) {
    run_fine_granularity(model, options, c, heavy_cutoff, result);
    result.seconds = timer.seconds();
    result.flops = util::flops::total();
    result.sched.pool_hits = pool.hits() - pool_hits0;
    result.sched.pool_misses = pool.misses() - pool_misses0;
    return result;
  }

  sched::SchedulerOptions sched_opts = sched::SchedulerOptions::from_env();
  if (options.schedule == Schedule::Static) sched_opts.work_stealing = false;
  sched::BatchScheduler scheduler(ranks, static_cast<std::uint32_t>(m_total),
                                  sched_opts);

  mpi::run(
      ranks,
      [&](mpi::Communicator& comm) {
        // --- On MPI_root: generate all HS fields, broadcast them (Alg. 3
        // scatters the static shares; with task migration every rank may
        // need any field, so the field table is broadcast instead — the
        // same "parameters travel, matrices don't" trade as the paper's).
        std::vector<double> all_fields;
        if (comm.rank() == 0) {
          util::Rng root_rng(options.seed);
          all_fields.reserve(static_cast<std::size_t>(m_total) * field_len);
          for (index_t i = 0; i < m_total; ++i) {
            HsField f(l, n, root_rng);
            const auto buf = f.serialize();
            all_fields.insert(all_fields.end(), buf.begin(), buf.end());
          }
        }
        comm.bcast(all_fields, 0);

        // --- On each MPI_process: scheduler-driven FSI + local
        // measurements.  Everything inside the task body depends only on
        // (seed, task index), so the batch result is invariant under rank
        // count, thread count and steal order.
        std::vector<double> done;  // [task, payload] records, fixed stride
        scheduler.run_worker(comm.rank(), [&](std::uint32_t task) {
          const HsField field = HsField::deserialize(
              l, n,
              all_fields.data() + static_cast<std::size_t>(task) * field_len,
              field_len);
          util::Rng task_rng(options.seed,
                             static_cast<std::uint64_t>(task) + 1);
          const index_t q =
              static_cast<index_t>(task_rng.below(static_cast<std::uint64_t>(c)));
          const pcyclic::Selection sel(l, c, q);
          const bool heavy = static_cast<index_t>(task) < heavy_cutoff;

          // Per spin: build M, CLS, BSOFI, then the wrapping passes; all
          // intermediates cycle through the workspace pool.
          struct SpinBlocks {
            pcyclic::SelectedInversion diag, rows, cols;
          };
          auto compute = [&](Spin spin) {
            const pcyclic::PCyclicMatrix mat = model.build_m(field, spin);
            const pcyclic::BlockOps ops(mat);
            pcyclic::PCyclicMatrix reduced = selinv::cluster(mat, c, q);
            dense::Matrix gtilde = bsofi::invert(reduced);
            reduced.release_blocks();
            SpinBlocks blocks{
                selinv::wrap(ops, gtilde, pcyclic::Pattern::AllDiagonals, sel),
                pcyclic::SelectedInversion(pcyclic::Pattern::Rows,
                                           mat.block_size(), sel),
                pcyclic::SelectedInversion(pcyclic::Pattern::Columns,
                                           mat.block_size(), sel)};
            if (heavy) {
              blocks.rows =
                  selinv::wrap(ops, gtilde, pcyclic::Pattern::Rows, sel);
              blocks.cols =
                  selinv::wrap(ops, gtilde, pcyclic::Pattern::Columns, sel);
            }
            sched::recycle(std::move(gtilde));
            return blocks;
          };
          SpinBlocks up = compute(Spin::Up);
          SpinBlocks dn = compute(Spin::Down);

          // This task's measurement quantities.  Serial accumulation into a
          // per-task buffer keeps the floating-point summation order fixed.
          Measurements task_meas(l, dmax);
          task_meas.add_sample(1.0);
          accumulate_equal_time(model.lattice(), up.diag, dn.diag,
                                model.params().t, 1.0, false, task_meas);
          if (heavy)
            accumulate_spxx(model.lattice(), up.rows, up.cols, dn.rows,
                            dn.cols, 1.0, false, task_meas);
          for (SpinBlocks* s : {&up, &dn}) {
            s->diag.release_blocks();
            s->rows.release_blocks();
            s->cols.release_blocks();
          }

          done.push_back(static_cast<double>(task));
          const std::vector<double> payload = task_meas.serialize();
          done.insert(done.end(), payload.begin(), payload.end());
        });

        // --- Merge on the root in ascending task order (a deterministic
        // replacement for Alg. 3's MPI_Reduce: the records carry their task
        // index, so the summation order never depends on placement).
        if (comm.rank() == 0) {
          std::vector<std::vector<double>> payloads(
              static_cast<std::size_t>(m_total));
          std::vector<bool> seen(static_cast<std::size_t>(m_total), false);
          auto ingest = [&](const std::vector<double>& records) {
            FSI_CHECK(records.size() % record_len == 0,
                      "run_parallel_fsi: malformed task-result records");
            for (std::size_t off = 0; off < records.size();
                 off += record_len) {
              const auto task = static_cast<std::size_t>(records[off]);
              FSI_CHECK(task < static_cast<std::size_t>(m_total) &&
                            !seen[task],
                        "run_parallel_fsi: duplicate or out-of-range task");
              seen[task] = true;
              payloads[task].assign(records.begin() + off + 1,
                                    records.begin() + off + record_len);
            }
          };
          ingest(done);
          for (int r = 1; r < comm.size(); ++r)
            ingest(comm.recv(r, kTagTaskResults));
          Measurements global(l, dmax);
          for (index_t t = 0; t < m_total; ++t) {
            FSI_CHECK(seen[static_cast<std::size_t>(t)],
                      "run_parallel_fsi: task result missing");
            global.merge(Measurements::deserialize(
                l, dmax, payloads[static_cast<std::size_t>(t)]));
          }
          result.global = global;
        } else {
          comm.send(0, kTagTaskResults, std::move(done));
        }
      },
      options.omp_threads_per_rank);

  result.seconds = timer.seconds();
  result.flops = util::flops::total();
  result.sched.workers = scheduler.workers();
  result.sched.tasks = scheduler.tasks();
  result.sched.steal_batches = scheduler.total_steal_batches();
  result.sched.stolen_tasks = scheduler.total_stolen_tasks();
  result.sched.busy_max_seconds = scheduler.busy_max_seconds();
  result.sched.busy_mean_seconds = scheduler.busy_mean_seconds();
  result.sched.busy_seconds = scheduler.busy_seconds();
  result.sched.pool_hits = pool.hits() - pool_hits0;
  result.sched.pool_misses = pool.misses() - pool_misses0;
  return result;
}

}  // namespace fsi::qmc

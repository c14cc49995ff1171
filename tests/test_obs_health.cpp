/// Tests for the fsi::obs::health layer: histogram/gauge/accumulator
/// mechanics, env-flag parsing, threshold classification, the too-large
/// wrap_interval failure mode (the check the monitor exists to catch),
/// residual/condition recording inside a real FSI call, drift-stat reset on
/// re-seed, and schema validation of the health + bench-telemetry JSON.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "fsi/obs/env.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/json_reader.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/telemetry.hpp"
#include "fsi/qmc/greens.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/selinv/fsi.hpp"

namespace {

using namespace fsi;
using dense::index_t;
namespace health = obs::health;
namespace metrics = obs::metrics;

/// Every test runs on clean, enabled health state with default thresholds;
/// state is wiped again on exit so tests stay order-independent.
class ObsHealth : public ::testing::Test {
 protected:
  void SetUp() override { clean(); }
  void TearDown() override { clean(); }

  static void clean() {
    health::set_enabled(true);
    health::set_sample_every(4);
    health::set_thresholds(health::Thresholds{});
    health::reset();
  }

  static const health::CheckRow& row(const health::HealthReport& rep,
                                     const std::string& name) {
    for (const health::CheckRow& r : rep.rows)
      if (r.name == name) return r;
    static health::CheckRow missing;
    ADD_FAILURE() << "no check row named " << name;
    return missing;
  }
};

qmc::HubbardModel make_model(index_t nx, index_t l, double u, double beta) {
  qmc::HubbardParams p;
  p.t = 1.0;
  p.u = u;
  p.beta = beta;
  p.l = l;
  return qmc::HubbardModel(qmc::Lattice::chain(nx), p);
}

// -- metrics substrate -------------------------------------------------------

TEST_F(ObsHealth, HistogramStatsAndBuckets) {
  metrics::record(metrics::Hist::WrapDrift, 1e-12);
  metrics::record(metrics::Hist::WrapDrift, 1e-3);
  metrics::record(metrics::Hist::WrapDrift, 2.5);

  const metrics::HistSnapshot s = metrics::hist(metrics::Hist::WrapDrift);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1e-12);
  EXPECT_DOUBLE_EQ(s.max, 2.5);
  EXPECT_DOUBLE_EQ(s.last, 2.5);
  EXPECT_NEAR(s.mean(), (1e-12 + 1e-3 + 2.5) / 3.0, 1e-12);
  // Decade buckets: 1e-12 -> decade -12, 1e-3 -> -3, 2.5 -> 0.
  EXPECT_EQ(s.buckets[-12 - metrics::kHistMinDecade], 1u);
  EXPECT_EQ(s.buckets[-3 - metrics::kHistMinDecade], 1u);
  EXPECT_EQ(s.buckets[0 - metrics::kHistMinDecade], 1u);
}

TEST_F(ObsHealth, HistogramBucketEdgeCases) {
  // Non-positive values land in the first bucket, infinities in the last.
  EXPECT_EQ(metrics::hist_bucket(0.0), 0);
  EXPECT_EQ(metrics::hist_bucket(-1.0), 0);
  EXPECT_EQ(metrics::hist_bucket(1e-30), 0);   // below the smallest decade
  EXPECT_EQ(metrics::hist_bucket(1e30), metrics::kHistBuckets - 1);
  EXPECT_EQ(metrics::hist_bucket(
                std::numeric_limits<double>::infinity()),
            metrics::kHistBuckets - 1);
}

TEST_F(ObsHealth, HistogramMergesAcrossThreads) {
  constexpr int kPerThread = 1000;
  auto worker = [] {
    for (int i = 0; i < kPerThread; ++i)
      metrics::record(metrics::Hist::SelResidual, 1e-9);
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  metrics::record(metrics::Hist::SelResidual, 1e-9);
  EXPECT_EQ(metrics::hist(metrics::Hist::SelResidual).count,
            2u * kPerThread + 1u);
}

TEST_F(ObsHealth, GaugesAndAccumulators) {
  metrics::set(metrics::Gauge::WrapInterval, 8.0);
  EXPECT_DOUBLE_EQ(metrics::get(metrics::Gauge::WrapInterval), 8.0);

  metrics::reset(metrics::Accum::HealthCheck);
  metrics::add_seconds(metrics::Accum::HealthCheck, 0.25);
  metrics::add_seconds(metrics::Accum::HealthCheck, 0.5);
  EXPECT_DOUBLE_EQ(metrics::seconds(metrics::Accum::HealthCheck), 0.75);
}

// -- env parsing -------------------------------------------------------------

TEST_F(ObsHealth, EnvFlagParsesFalsyAndTruthyValues) {
  ASSERT_EQ(unsetenv("FSI_TEST_FLAG"), 0);
  EXPECT_TRUE(obs::env_flag("FSI_TEST_FLAG", true));
  EXPECT_FALSE(obs::env_flag("FSI_TEST_FLAG", false));

  for (const char* falsy : {"", "0", "false", "FALSE", "off", "Off", "no"}) {
    ASSERT_EQ(setenv("FSI_TEST_FLAG", falsy, 1), 0);
    EXPECT_FALSE(obs::env_flag("FSI_TEST_FLAG", true)) << '"' << falsy << '"';
  }
  for (const char* truthy : {"1", "true", "on", "yes", "2", "anything"}) {
    ASSERT_EQ(setenv("FSI_TEST_FLAG", truthy, 1), 0);
    EXPECT_TRUE(obs::env_flag("FSI_TEST_FLAG", false)) << '"' << truthy << '"';
  }
  unsetenv("FSI_TEST_FLAG");
}

// -- classification ----------------------------------------------------------

TEST_F(ObsHealth, ThresholdClassification) {
  health::record_drift(1e-9);  // below warn
  EXPECT_EQ(row(health::report(), "wrap_drift").status, health::Status::Ok);

  health::record_drift(1e-5);  // >= warn, < fail
  {
    const health::HealthReport rep = health::report();
    EXPECT_EQ(row(rep, "wrap_drift").status, health::Status::Warn);
    EXPECT_EQ(rep.overall, health::Status::Warn);
  }

  health::record_drift(0.5);  // >= fail
  {
    const health::HealthReport rep = health::report();
    EXPECT_EQ(row(rep, "wrap_drift").status, health::Status::Fail);
    EXPECT_EQ(rep.overall, health::Status::Fail);
    EXPECT_EQ(rep.drift_history.size(), 3u);
    EXPECT_DOUBLE_EQ(rep.drift_history.back(), 0.5);
  }
}

TEST_F(ObsHealth, NonfiniteObservationIsUnconditionalFail) {
  health::record_nonfinite("unit.test");
  const health::HealthReport rep = health::report();
  EXPECT_EQ(row(rep, "nonfinite").status, health::Status::Fail);
  EXPECT_EQ(row(rep, "nonfinite").note, "unit.test");
  EXPECT_EQ(rep.overall, health::Status::Fail);
}

TEST_F(ObsHealth, DisabledHooksRecordNothing) {
  health::set_enabled(false);
  health::record_drift(1.0);
  health::record_cond1(1e20);
  health::record_residual(1.0);
  health::record_nonfinite("ignored");
  EXPECT_FALSE(health::should_sample_residual());
  health::set_enabled(true);

  const health::HealthReport rep = health::report();
  for (const char* name : {"wrap_drift", "cond1_reduced", "sel_residual",
                           "nonfinite"})
    EXPECT_EQ(row(rep, name).count, 0u) << name;
  EXPECT_EQ(rep.overall, health::Status::Ok);
}

TEST_F(ObsHealth, ResidualSamplingPeriod) {
  health::set_sample_every(3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i)
    if (health::should_sample_residual()) ++sampled;
  EXPECT_EQ(sampled, 3);

  health::set_sample_every(0);
  EXPECT_FALSE(health::should_sample_residual());
}

// -- the failure mode the monitor exists for ---------------------------------

TEST_F(ObsHealth, TooLargeWrapIntervalTripsWarnOrFail) {
  // A stiff Hubbard chain (strong coupling, low temperature) wrapped for a
  // full lap without stabilisation: the chain-product round-off must show
  // up as wrap drift beyond the WARN threshold.  The identical engine with
  // a sane wrap interval stays OK — this pins down the signal, not noise.
  const index_t l = 32;
  qmc::HubbardModel model = make_model(4, l, /*u=*/6.0, /*beta=*/8.0);
  util::Rng rng(4242);
  qmc::HsField h(l, 4, rng);

  qmc::EqualTimeGreens sane(model, h, qmc::Spin::Up, 4, /*wrap_interval=*/4);
  for (index_t s = 0; s < l; ++s) sane.advance();
  const health::HealthReport good = health::report();
  EXPECT_EQ(row(good, "wrap_drift").status, health::Status::Ok)
      << "sane wrap interval drifted to " << row(good, "wrap_drift").worst;

  health::reset();
  qmc::EqualTimeGreens lazy(model, h, qmc::Spin::Up, 4, /*wrap_interval=*/l);
  for (index_t s = 0; s < l; ++s) lazy.advance();
  const health::HealthReport bad = health::report();
  EXPECT_GE(row(bad, "wrap_drift").count, 1u);
  EXPECT_NE(row(bad, "wrap_drift").status, health::Status::Ok)
      << "wrap_interval=" << l << " only drifted to "
      << row(bad, "wrap_drift").worst;
  EXPECT_NE(bad.overall, health::Status::Ok);
}

TEST_F(ObsHealth, ReseedClearsDriftStatistics) {
  qmc::HubbardModel model = make_model(4, 16, /*u=*/4.0, /*beta=*/4.0);
  util::Rng rng(607);
  qmc::HsField h(16, 4, rng);
  qmc::EqualTimeGreens eng(model, h, qmc::Spin::Up, 4, /*wrap_interval=*/4);
  for (int s = 0; s < 16; ++s) eng.advance();
  EXPECT_GT(eng.recomputes(), 0);
  EXPECT_GT(eng.max_drift(), 0.0);

  eng.reseed();
  EXPECT_DOUBLE_EQ(eng.last_drift(), 0.0);
  EXPECT_DOUBLE_EQ(eng.max_drift(), 0.0);
  EXPECT_EQ(eng.recomputes(), 1);  // the re-seeding recompute itself
}

// -- recording inside a real FSI call ----------------------------------------

TEST_F(ObsHealth, FsiRecordsConditionAndResidual) {
  health::set_sample_every(1);  // force the spot check on this call
  qmc::HubbardModel model = make_model(6, 16, /*u=*/2.0, /*beta=*/2.0);
  util::Rng rng(11);
  qmc::HsField h(16, 6, rng);
  pcyclic::PCyclicMatrix m = model.build_m(h, qmc::Spin::Up);

  selinv::FsiOptions opts;
  opts.c = 4;
  opts.pattern = pcyclic::Pattern::Columns;
  util::Rng frng(7);
  selinv::fsi(m, opts, frng);

  EXPECT_GE(metrics::hist(metrics::Hist::Cond1Reduced).count, 1u);
  EXPECT_GE(metrics::hist(metrics::Hist::SelResidual).count, 1u);
  // A healthy selected inverse satisfies its defining identity to rounding.
  EXPECT_LT(metrics::hist(metrics::Hist::SelResidual).max, 1e-8);
  EXPECT_EQ(health::report().overall, health::Status::Ok);
}

TEST_F(ObsHealth, HeavyFp64BatchRecordsSeamResiduals) {
  // Every heavy fp64 task is sampled at period 1 and records one seam
  // residual per spin; light tasks store no Rows/Columns to check.
  qmc::HubbardModel model = make_model(6, 16, /*u=*/2.0, /*beta=*/2.0);
  util::Rng rng(12);
  std::vector<qmc::FsiBatchTask> tasks;
  for (const bool heavy : {true, false, true})
    tasks.push_back({qmc::HsField(16, 6, rng), 3, heavy});
  qmc::FsiBatchOptions batch;
  batch.num_workers = 2;
  batch.cluster_size = 4;
  batch.precision = Precision::Fp64;

  health::set_sample_every(0);
  (void)qmc::run_fsi_batch(model, tasks, batch);
  EXPECT_EQ(row(health::report(), "sel_residual").count, 0u);

  health::set_sample_every(1);
  (void)qmc::run_fsi_batch(model, tasks, batch);
  const health::HealthReport rep = health::report();
  EXPECT_EQ(row(rep, "sel_residual").count, 4u);
  // A healthy walk meets its neighbour to rounding.
  EXPECT_LT(row(rep, "sel_residual").worst, 1e-10);
  EXPECT_EQ(rep.overall, health::Status::Ok);
}

// -- JSON schemas ------------------------------------------------------------

TEST_F(ObsHealth, HealthJsonMatchesSchema) {
  health::record_drift(1e-9);
  health::record_cond1(1e4);
  health::record_residual(1e-13);

  obs::Json doc;
  ASSERT_TRUE(obs::parse_json(health::report().json(), &doc));
  EXPECT_EQ(doc.values_for("schema").count(health::kHealthSchema), 1u);
  const std::set<std::string> names = doc.values_for("name");
  for (const char* check : {"wrap_drift", "cond1_reduced", "sel_residual",
                            "nonfinite", "fp_flags"})
    EXPECT_EQ(names.count(check), 1u) << check;
  EXPECT_EQ(doc.values_for("overall").count("OK"), 1u);
}

TEST_F(ObsHealth, BenchTelemetryJsonMatchesSchema) {
  obs::BenchTelemetry t("unit_test");
  t.add_info("N", 48.0);
  t.add_info("note", "schema \"check\"");
  t.add_metric("speed", 12.5, "gflops", /*gate=*/true);
  t.add_metric("resid", 1e-12, "rel_err", false, /*higher_is_better=*/false);

  obs::Json doc;
  ASSERT_TRUE(obs::parse_json(t.json(), &doc));
  EXPECT_EQ(doc.values_for("schema").count(obs::kBenchSchema), 1u);
  EXPECT_EQ(doc.values_for("bench").count("unit_test"), 1u);
  const std::set<std::string> keys = doc.values_for("key");
  EXPECT_EQ(keys.count("speed"), 1u);
  EXPECT_EQ(keys.count("resid"), 1u);
  // The embedded health report rides along under the same document.
  EXPECT_EQ(doc.values_for("schema").count(health::kHealthSchema), 1u);
}

}  // namespace

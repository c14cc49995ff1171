/// Tests for the OpenMetrics exporter: the full exposition passes the
/// grammar checker, specific series carry the registry's values, histogram
/// buckets are cumulative with monotone le bounds, the build-info line is
/// present, and textfile mode writes atomically.  The checker itself gets
/// negative coverage so a green run means it can actually fail, and so
/// does its command-line front end, fsi_check_openmetrics.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "fsi/obs/build.hpp"
#include "fsi/obs/exporter.hpp"
#include "fsi/obs/json.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/openmetrics_check.hpp"

namespace {

namespace m = fsi::obs::metrics;
using fsi::obs::OpenMetricsChecker;

struct ExporterFixture : ::testing::Test {
  void SetUp() override {
    m::reset_all();
    m::reset(m::Hist::ServeLatency);
    m::reset_window(m::Hist::ServeLatency);
  }
};

TEST_F(ExporterFixture, FullExpositionPassesGrammarCheck) {
  const std::string doc = fsi::obs::openmetrics();
  OpenMetricsChecker checker;
  EXPECT_TRUE(checker.check(doc)) << checker.error();

  // Every registry dimension shows up as at least one family.
  EXPECT_EQ(checker.families().at("fsi_build"), "info");
  EXPECT_EQ(checker.families().at("fsi_flops"), "counter");
  EXPECT_EQ(checker.families().at("fsi_wrap_interval"), "gauge");
  EXPECT_EQ(checker.families().at("fsi_serve_latency_s"), "histogram");
  EXPECT_EQ(checker.families().at("fsi_serve_latency_s_window_p95"), "gauge");
}

TEST_F(ExporterFixture, EndsWithEofAndNothingElse) {
  const std::string doc = fsi::obs::openmetrics();
  const std::string tail = "# EOF\n";
  ASSERT_GE(doc.size(), tail.size());
  EXPECT_EQ(doc.substr(doc.size() - tail.size()), tail);
}

TEST_F(ExporterFixture, CounterValuesSurviveTheRoundTrip) {
  m::add(m::Counter::Flops, 12345);
  m::add(m::Counter::ServeRequests, 7);
  OpenMetricsChecker checker;
  ASSERT_TRUE(checker.check(fsi::obs::openmetrics())) << checker.error();
  EXPECT_EQ(checker.value_of("fsi_flops_total"), 12345.0);
  EXPECT_EQ(checker.value_of("fsi_serve_requests_total"), 7.0);
}

TEST_F(ExporterFixture, GaugeValuesSurviveTheRoundTrip) {
  m::set(m::Gauge::WrapInterval, 8.0);
  OpenMetricsChecker checker;
  ASSERT_TRUE(checker.check(fsi::obs::openmetrics())) << checker.error();
  EXPECT_EQ(checker.value_of("fsi_wrap_interval"), 8.0);
}

TEST_F(ExporterFixture, HistogramSumCountAndCumulativeBuckets) {
  // Values spread over three decades so several buckets are non-empty.
  m::record_windowed(m::Hist::ServeLatency, 0.001);
  m::record_windowed(m::Hist::ServeLatency, 0.010);
  m::record_windowed(m::Hist::ServeLatency, 0.100);
  m::record_windowed(m::Hist::ServeLatency, 0.100);
  OpenMetricsChecker checker;
  // check() itself enforces monotone le and cumulative counts.
  ASSERT_TRUE(checker.check(fsi::obs::openmetrics())) << checker.error();
  EXPECT_EQ(checker.value_of("fsi_serve_latency_s_count"), 4.0);
  EXPECT_NEAR(checker.value_of("fsi_serve_latency_s_sum"), 0.211, 1e-9);
  EXPECT_EQ(checker.value_of("fsi_serve_latency_s_window_count"), 4.0);
}

TEST_F(ExporterFixture, BuildInfoLineCarriesTheStampedSha) {
  const std::string doc = fsi::obs::openmetrics();
  const fsi::obs::BuildInfo& b = fsi::obs::build_info();
  EXPECT_NE(doc.find("fsi_build_info{version=\""), std::string::npos);
  EXPECT_NE(doc.find(std::string("git_sha=\"") + b.git_sha + "\""),
            std::string::npos);
}

TEST_F(ExporterFixture, ContentTypeIsOpenMetrics) {
  EXPECT_NE(std::string(fsi::obs::kOpenMetricsContentType)
                .find("application/openmetrics-text"),
            std::string::npos);
}

TEST_F(ExporterFixture, TextfileModeWritesAValidDocumentAtomically) {
  const std::string path =
      ::testing::TempDir() + "fsi_exporter_textfile.om";
  ASSERT_TRUE(fsi::obs::write_openmetrics(path));

  const std::string doc = fsi::obs::read_text_file(path);
  std::remove(path.c_str());

  OpenMetricsChecker checker;
  EXPECT_TRUE(checker.check(doc)) << checker.error();
  // The .tmp staging file must not survive a successful write.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ExporterFixture, WriteToUnwritablePathReportsFailure) {
  EXPECT_FALSE(fsi::obs::write_openmetrics("/nonexistent-dir/x/metrics.om"));
}

// --- the checker must reject broken documents, or green means nothing ----

TEST(OpenMetricsCheckerSelfTest, RejectsMissingEof) {
  OpenMetricsChecker c;
  EXPECT_FALSE(c.check("# HELP a b\n# TYPE a counter\na_total 1\n"));
}

TEST(OpenMetricsCheckerSelfTest, RejectsSampleBeforeType) {
  OpenMetricsChecker c;
  EXPECT_FALSE(c.check("# HELP a b\na_total 1\n# TYPE a counter\n# EOF\n"));
}

TEST(OpenMetricsCheckerSelfTest, RejectsInterleavedFamilies) {
  OpenMetricsChecker c;
  EXPECT_FALSE(c.check("# HELP a b\n# TYPE a counter\na_total 1\n"
                       "# HELP x y\n# TYPE x counter\nx_total 1\n"
                       "# HELP a b\n# TYPE a counter\na_total 2\n# EOF\n"));
}

TEST(OpenMetricsCheckerSelfTest, RejectsNonCumulativeBuckets) {
  OpenMetricsChecker c;
  EXPECT_FALSE(c.check(
      "# HELP h x\n# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n"
      "h_sum 1\nh_count 3\n# EOF\n"));
}

TEST(OpenMetricsCheckerSelfTest, RejectsMissingInfBucket) {
  OpenMetricsChecker c;
  EXPECT_FALSE(c.check("# HELP h x\n# TYPE h histogram\n"
                       "h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n# EOF\n"));
}

TEST(OpenMetricsCheckerSelfTest, RejectsCounterWithoutTotalSuffix) {
  OpenMetricsChecker c;
  EXPECT_FALSE(c.check("# HELP a b\n# TYPE a counter\na 1\n# EOF\n"));
}

TEST(OpenMetricsCheckerSelfTest, AcceptsMinimalValidDocument) {
  OpenMetricsChecker c;
  EXPECT_TRUE(c.check("# HELP a b\n# TYPE a counter\na_total 1\n# EOF\n"))
      << c.error();
  EXPECT_EQ(c.value_of("a_total"), 1.0);
}

#if defined(FSI_CHECK_OPENMETRICS)

/// The shell-pipeline front end: exit 0 on a valid exposition (file or
/// stdin), 1 on a grammar violation, a missing --require family or an
/// unreadable file, 2 on a usage error.
TEST_F(ExporterFixture, CheckToolExitCodes) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "fsi_check_good.om";
  const std::string bad = dir + "fsi_check_bad.om";
  ASSERT_TRUE(fsi::obs::write_openmetrics(good));
  ASSERT_TRUE(fsi::obs::write_text_file(
      bad, "# HELP a b\n# TYPE a counter\na 1\n# EOF\n"));
  const auto run = [](const std::string& args) {
    const int rc = std::system((std::string(FSI_CHECK_OPENMETRICS) + " " +
                                args + " > /dev/null 2>&1")
                                   .c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  EXPECT_EQ(run(good + " --require fsi_build --require fsi_flops"), 0);
  EXPECT_EQ(run("< " + good), 0);
  EXPECT_EQ(run(bad), 1);
  EXPECT_EQ(run(good + " --require fsi_no_such_family"), 1);
  EXPECT_EQ(run(dir + "fsi_check_missing.om"), 1);
  EXPECT_EQ(run("--bogus"), 2);
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

#endif  // FSI_CHECK_OPENMETRICS

}  // namespace

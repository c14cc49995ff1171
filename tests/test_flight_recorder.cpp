/// Tests for the crash flight recorder: ring recording and wrap semantics,
/// span integration with FSI_TRACE off, dump writing (parsed back with the
/// shared JSON reader), and the full end-to-end crash flow — the
/// deliberately-crashing helper dies of SIGSEGV, its handler writes
/// crash-<pid>.fsi.json, and fsi_postmortem renders the dump into a summary
/// plus a chrome://tracing timeline in obs::chrome_trace_json's shape.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "fsi/obs/flight.hpp"
#include "fsi/obs/json.hpp"
#include "fsi/obs/json_reader.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"

namespace {

namespace fl = fsi::obs::flight;
namespace fs = std::filesystem;
using fsi::obs::Json;
using fsi::obs::read_text_file;

struct FlightFixture : ::testing::Test {
  void SetUp() override {
    fl::set_enabled(true);
    fl::clear();
  }
  void TearDown() override {
    fl::set_enabled(true);
    fl::clear();
  }
};

bool any_record_named(const std::vector<fsi::obs::TraceEvent>& snap,
                      const char* name) {
  for (const fsi::obs::TraceEvent& rec : snap)
    if (std::string(rec.name) == name) return true;
  return false;
}

TEST_F(FlightFixture, RecordedSpansAppearInSnapshot) {
  fl::record("flight.test_a", 100, 50, 42, 0);
  fl::record("flight.test_b", 200, 25, 0, 1);
  const auto snap = fl::snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_STREQ(snap[0].name, "flight.test_a");
  EXPECT_EQ(snap[0].t0_ns, 100);
  EXPECT_EQ(snap[0].dur_ns, 50);
  EXPECT_EQ(snap[0].trace_id, 42u);
  EXPECT_STREQ(snap[1].name, "flight.test_b");
  EXPECT_EQ(snap[1].omp_tid, 1);
}

TEST_F(FlightFixture, RingWrapsKeepingTheMostRecentRecords) {
  const int pushes = fl::kRingCapacity + 10;
  for (int i = 0; i < pushes; ++i)
    fl::record(i == pushes - 1 ? "flight.newest" : "flight.bulk", i, 1, 0, 0);
  const auto snap = fl::snapshot();
  EXPECT_EQ(snap.size(), static_cast<std::size_t>(fl::kRingCapacity));
  EXPECT_TRUE(any_record_named(snap, "flight.newest"));
  // Oldest surviving record is push #10 — wraps dropped exactly the front.
  EXPECT_EQ(snap.front().t0_ns, 10);
  EXPECT_GE(fl::recorded(), static_cast<std::uint64_t>(pushes));
}

TEST_F(FlightFixture, SpansFeedTheRecorderWithTracingOff) {
  fsi::obs::set_enabled(false);  // the whole point: flight works without it
  { FSI_OBS_SPAN("flight.span_integration"); }
  EXPECT_TRUE(any_record_named(fl::snapshot(), "flight.span_integration"));
}

TEST_F(FlightFixture, DisabledRecorderDropsRecords) {
  fl::set_enabled(false);
  fl::record("flight.ignored", 1, 1, 0, 0);
  { FSI_OBS_SPAN("flight.span_ignored"); }
  EXPECT_TRUE(fl::snapshot().empty());
}

TEST_F(FlightFixture, WriteDumpProducesAParseableDocument) {
  fl::record("flight.dumped", 1000, 2000, 99, 3);
  fsi::obs::metrics::add(fsi::obs::metrics::Counter::KernelCalls, 5);
  const std::string path = ::testing::TempDir() + "fsi_flight_dump.json";
  ASSERT_TRUE(fl::write_dump("TEST", path.c_str()));

  const std::string doc = read_text_file(path);
  std::remove(path.c_str());
  ASSERT_FALSE(doc.empty());
  // Trailing newline, then a parseable object with the expected sections.
  ASSERT_EQ(doc.back(), '\n');
  Json parsed;
  ASSERT_TRUE(fsi::obs::parse_json(doc.substr(0, doc.size() - 1), &parsed))
      << doc;
  EXPECT_EQ(parsed.str_or("signal", ""), "TEST");
  EXPECT_EQ(parsed.values_for("name").count("flight.dumped"), 1u);
  EXPECT_NE(doc.find("\"fsi_crash_dump\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"build\""), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"git_sha\""), std::string::npos);
}

TEST_F(FlightFixture, WriteDumpToUnwritablePathFails) {
  EXPECT_FALSE(fl::write_dump("TEST", "/nonexistent-dir/x/dump.json"));
}

#if defined(FSI_CRASH_HELPER) && defined(FSI_POSTMORTEM)

/// End-to-end: helper SIGSEGVs -> handler writes the dump -> fsi_postmortem
/// summarises it and emits a chrome://tracing timeline.
TEST(CrashFlow, SegvProducesDumpAndPostmortemRendersIt) {
  const std::string dir = ::testing::TempDir() + "fsi_crash_flow/";
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(fs::create_directories(dir));

  const std::string cmd = "FSI_CRASH_DIR=" + dir + " " + FSI_CRASH_HELPER +
                          " --signal segv --spans 32 > " + dir +
                          "helper.out 2>&1";
  const int rc = std::system(cmd.c_str());
  // The helper must die of the signal, not exit normally.
  ASSERT_TRUE(WIFSIGNALED(rc) || (WIFEXITED(rc) && WEXITSTATUS(rc) != 0));

  std::string dump;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("crash-", 0) == 0 &&
        name.find(".fsi.json") != std::string::npos)
      dump = entry.path().string();
  }
  ASSERT_FALSE(dump.empty()) << "no crash dump written in " << dir;

  const std::string doc = read_text_file(dump);
  ASSERT_FALSE(doc.empty());
  Json crash;
  ASSERT_TRUE(fsi::obs::parse_json(doc.substr(0, doc.size() - 1), &crash))
      << doc;
  EXPECT_EQ(crash.str_or("signal", ""), "SIGSEGV");
  EXPECT_EQ(crash.values_for("name").count("helper.compute"), 1u);
  EXPECT_EQ(crash.values_for("name").count("helper.final_span"), 1u);
  const Json* rings = crash.find("rings");
  ASSERT_NE(rings, nullptr);
  std::size_t records = 0;
  for (const Json& ring : rings->arr)
    records += ring.find("records")->arr.size();

  // fsi_postmortem renders the dump and writes a valid trace timeline.
  const std::string trace = dir + "final.trace.json";
  const std::string pm_cmd = std::string(FSI_POSTMORTEM) + " " + dump +
                             " --trace " + trace + " --records 5 > " + dir +
                             "pm.out 2>&1";
  const int pm_rc = std::system(pm_cmd.c_str());
  ASSERT_TRUE(WIFEXITED(pm_rc) && WEXITSTATUS(pm_rc) == 0)
      << read_text_file(dir + "pm.out");

  const std::string summary = read_text_file(dir + "pm.out");
  EXPECT_NE(summary.find("SIGSEGV"), std::string::npos) << summary;
  EXPECT_NE(summary.find("helper.final_span"), std::string::npos) << summary;

  const std::string timeline = read_text_file(trace);
  ASSERT_FALSE(timeline.empty());
  Json trace_doc;
  ASSERT_TRUE(fsi::obs::parse_json(timeline, &trace_doc)) << timeline;
  EXPECT_EQ(trace_doc.values_for("name").count("helper.final_span"), 1u);
  // The live trace export's shape: every ring record becomes one "X" event
  // with obs::chrome_trace_json's keys in its order, under the dump's pid.
  EXPECT_EQ(trace_doc.str_or("displayTimeUnit", ""), "ms");
  const Json* events = trace_doc.find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->kind == Json::Kind::Arr);
  EXPECT_EQ(events->arr.size(), records);
  const std::vector<std::string> keys = {"name", "cat", "ph",  "ts",
                                         "dur",  "pid", "tid", "args"};
  for (const Json& e : events->arr) {
    std::vector<std::string> got;
    for (const auto& kv : e.obj) got.push_back(kv.first);
    EXPECT_EQ(got, keys);
    EXPECT_EQ(e.str_or("cat", ""), "fsi");
    EXPECT_EQ(e.str_or("ph", ""), "X");
    EXPECT_EQ(e.i64_or("pid", -1), crash.i64_or("pid", 0));
    const Json* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->find("omp_tid"), nullptr);
  }

  // A non-dump input is rejected with a nonzero exit.
  const int bad_rc = std::system(
      (std::string(FSI_POSTMORTEM) + " " + trace + " > /dev/null 2>&1")
          .c_str());
  EXPECT_TRUE(WIFEXITED(bad_rc) && WEXITSTATUS(bad_rc) != 0);

  fs::remove_all(dir, ec);
}

#endif  // FSI_CRASH_HELPER && FSI_POSTMORTEM

}  // namespace

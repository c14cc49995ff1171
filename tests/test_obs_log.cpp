/// Tests for obs::log: level parsing and gating, logfmt and jsonl record
/// shape (the jsonl side validated with the shared JSON reader), field
/// rendering and escaping, per-site rate limiting with suppressed-count
/// drainage, and trace-id correlation.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fsi/obs/json.hpp"
#include "fsi/obs/json_reader.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/trace.hpp"

namespace {

namespace lg = fsi::obs::log;

/// Capture sink: every test logs into a tmpfile and reads it back.
struct LogFixture : ::testing::Test {
  void SetUp() override {
    sink_ = std::tmpfile();
    ASSERT_NE(sink_, nullptr);
    lg::set_stream(sink_);
    lg::set_level(lg::Level::Debug);
    lg::set_format(lg::Format::Logfmt);
    lg::set_site_limit(50);
  }
  void TearDown() override {
    lg::set_stream(nullptr);
    lg::set_level(lg::Level::Info);
    lg::set_format(lg::Format::Logfmt);
    lg::set_site_limit(50);
    fsi::obs::set_active_trace(0);
    std::fclose(sink_);
  }

  std::string captured() {
    std::fflush(sink_);
    std::rewind(sink_);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, sink_)) > 0) out.append(buf, n);
    return out;
  }

  std::FILE* sink_ = nullptr;
};

TEST(LogLevelParse, AcceptedSpellings) {
  lg::Level lv = lg::Level::Off;
  EXPECT_TRUE(lg::parse_level("debug", lv));
  EXPECT_EQ(lv, lg::Level::Debug);
  EXPECT_TRUE(lg::parse_level("WARN", lv));
  EXPECT_EQ(lv, lg::Level::Warn);
  EXPECT_TRUE(lg::parse_level("warning", lv));
  EXPECT_EQ(lv, lg::Level::Warn);
  EXPECT_TRUE(lg::parse_level("none", lv));
  EXPECT_EQ(lv, lg::Level::Off);
  EXPECT_FALSE(lg::parse_level("verbose", lv));
  EXPECT_FALSE(lg::parse_level("", lv));
  EXPECT_FALSE(lg::parse_level(nullptr, lv));
  EXPECT_EQ(lv, lg::Level::Off);  // untouched on failure
}

TEST_F(LogFixture, LevelGateSuppressesBelowThreshold) {
  lg::set_level(lg::Level::Warn);
  EXPECT_FALSE(lg::should(lg::Level::Debug));
  EXPECT_FALSE(lg::should(lg::Level::Info));
  EXPECT_TRUE(lg::should(lg::Level::Warn));
  EXPECT_TRUE(lg::should(lg::Level::Error));

  FSI_LOG_INFO("test.dropped", {"k", 1});
  FSI_LOG_WARN("test.kept", {"k", 2});
  const std::string out = captured();
  EXPECT_EQ(out.find("test.dropped"), std::string::npos);
  EXPECT_NE(out.find("test.kept"), std::string::npos);
}

TEST_F(LogFixture, OffSilencesEverything) {
  lg::set_level(lg::Level::Off);
  FSI_LOG_ERROR("test.silenced");
  EXPECT_TRUE(captured().empty());
}

TEST_F(LogFixture, LogfmtShape) {
  FSI_LOG_WARN("serve.shed", {"reason", "admission queue full"},
               {"depth", 64}, {"ratio", 0.5}, {"ok", true});
  const std::string out = captured();
  EXPECT_NE(out.find("ts="), std::string::npos);
  EXPECT_NE(out.find(" level=warn"), std::string::npos);
  EXPECT_NE(out.find(" event=serve.shed"), std::string::npos);
  // Strings with spaces are quoted; scalars are bare.
  EXPECT_NE(out.find("reason=\"admission queue full\""), std::string::npos);
  EXPECT_NE(out.find(" depth=64"), std::string::npos);
  EXPECT_NE(out.find(" ratio=0.5"), std::string::npos);
  EXPECT_NE(out.find(" ok=true"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

TEST_F(LogFixture, LogfmtBareTokenNeedsNoQuotes) {
  FSI_LOG_INFO("test.bare", {"endpoint", "unix:fsi.sock"});
  const std::string out = captured();
  EXPECT_NE(out.find("endpoint=unix:fsi.sock"), std::string::npos);
  EXPECT_EQ(out.find("endpoint=\""), std::string::npos);
}

TEST_F(LogFixture, JsonlRecordsParse) {
  lg::set_format(lg::Format::Jsonl);
  FSI_LOG_ERROR("serve.fatal", {"reason", "bind: \"addr\" in use\n"},
                {"attempt", 3});
  const std::string out = captured();
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  fsi::obs::Json doc;
  ASSERT_TRUE(fsi::obs::parse_json(out.substr(0, out.size() - 1), &doc))
      << out;
  EXPECT_EQ(doc.str_or("level", ""), "error");
  EXPECT_EQ(doc.str_or("event", ""), "serve.fatal");
  EXPECT_EQ(doc.str_or("reason", ""), "bind: \"addr\" in use\n");
  EXPECT_EQ(doc.i64_or("attempt", 0), 3);
}

TEST_F(LogFixture, NonFiniteDoublesStayParseableInJson) {
  lg::set_format(lg::Format::Jsonl);
  FSI_LOG_INFO("test.nonfinite", {"x", 1.0 / 0.0}, {"y", 0.0 / 0.0});
  const std::string out = captured();
  fsi::obs::Json doc;
  EXPECT_TRUE(fsi::obs::parse_json(out.substr(0, out.size() - 1), &doc))
      << out;
}

TEST_F(LogFixture, TraceIdTagsEveryLineWhileActive) {
  fsi::obs::set_active_trace(7777);
  FSI_LOG_INFO("test.correlated");
  fsi::obs::set_active_trace(0);
  FSI_LOG_INFO("test.uncorrelated");
  const std::string out = captured();
  EXPECT_NE(out.find("event=test.correlated trace=7777"), std::string::npos)
      << out;
  const std::size_t second = out.find("test.uncorrelated");
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(out.find("trace=", second), std::string::npos);
}

TEST_F(LogFixture, SiteRateLimitAdmitsUpToLimit) {
  lg::set_site_limit(3);
  lg::Site site;
  EXPECT_TRUE(lg::admit(site));
  EXPECT_TRUE(lg::admit(site));
  EXPECT_TRUE(lg::admit(site));
  EXPECT_FALSE(lg::admit(site));
  EXPECT_FALSE(lg::admit(site));
  EXPECT_EQ(site.suppressed.load(), 2u);

  // Force the 1 s window to expire: the next admit resets the budget.
  // (now_ns() counts from process start, so rewind relative to it.)
  site.window_start_ns.store(fsi::obs::now_ns() - 2'000'000'000);
  EXPECT_TRUE(lg::admit(site));
}

TEST_F(LogFixture, FloodedMacroSiteEmitsOnlyTheWindowBudget) {
  lg::set_site_limit(1);
  const std::uint64_t before = lg::lines_written();
  for (int i = 0; i < 5; ++i)
    FSI_LOG_WARN("test.flood", {"i", i});  // one macro site, one window
  EXPECT_EQ(lg::lines_written(), before + 1);
}

TEST_F(LogFixture, SuppressedFieldAppearsAfterWindowReset) {
  lg::set_site_limit(1);
  static lg::Site site;  // hand-rolled site so the window can be rewound
  site.window_start_ns.store(0);
  site.emitted_in_window.store(0);
  site.suppressed.store(0);
  ASSERT_TRUE(lg::admit(site));
  lg::write(lg::Level::Warn, "test.drain", &site, {{"n", 1}});
  ASSERT_FALSE(lg::admit(site));
  ASSERT_FALSE(lg::admit(site));
  site.window_start_ns.store(fsi::obs::now_ns() - 2'000'000'000);  // expire
  ASSERT_TRUE(lg::admit(site));
  lg::write(lg::Level::Warn, "test.drain", &site, {{"n", 2}});
  const std::string out = captured();
  EXPECT_NE(out.find("suppressed=2"), std::string::npos) << out;
}

TEST_F(LogFixture, SetFileAppendsAndFallsBackToStderr) {
  const std::string path = ::testing::TempDir() + "fsi_log_test.log";
  std::remove(path.c_str());
  ASSERT_TRUE(lg::set_file(path));
  FSI_LOG_INFO("test.to_file", {"k", "v"});
  lg::set_stream(sink_);  // closes the owned file, back to the tmpfile

  const std::string logged = fsi::obs::read_text_file(path);
  std::remove(path.c_str());
  EXPECT_NE(logged.find("test.to_file"), std::string::npos) << logged;

  EXPECT_FALSE(lg::set_file("/nonexistent-dir/x/y.log"));
}

}  // namespace

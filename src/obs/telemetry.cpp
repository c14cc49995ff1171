#include "fsi/obs/telemetry.hpp"

#include <omp.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "fsi/obs/build.hpp"
#include "fsi/obs/health.hpp"
#include "fsi/obs/json.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"

namespace fsi::obs {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

BenchTelemetry::BenchTelemetry(std::string bench_name)
    : name_(std::move(bench_name)), start_s_(steady_seconds()) {}

void BenchTelemetry::add_info(const std::string& key,
                              const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void BenchTelemetry::add_info(const std::string& key, double value) {
  info_.emplace_back(key, num(value));
}

void BenchTelemetry::add_metric(const std::string& key, double value,
                                std::string unit, bool gate,
                                bool higher_is_better) {
  metrics_.push_back({key, value, std::move(unit), gate, higher_is_better});
}

std::string BenchTelemetry::json() const {
  std::string out = "{\"schema\":\"";
  out += kBenchSchema;
  out += "\",\"bench\":" + json_string(name_);
  out += ",\"wall_s\":";
  out += num(steady_seconds() - start_s_);

  // Build/config fingerprint: enough to tell a true perf regression from a
  // compiler, flag, thread-count or FP-environment change — and to match an
  // artifact back to the exact commit that produced it.
  const BuildInfo& bi = build_info();
  out += ",\"build\":{\"version\":" + json_string(bi.version);
  out += ",\"git_sha\":" + json_string(bi.git_sha);
  out += ",\"build_type\":" + json_string(bi.build_type);
  out += ",\"cxx_flags\":" + json_string(bi.cxx_flags);
  out += ",\"compiler\":" + json_string(bi.compiler);
#if defined(NDEBUG)
  out += ",\"ndebug\":true";
#else
  out += ",\"ndebug\":false";
#endif
  out += ",\"omp_max_threads\":" + num(omp_get_max_threads());
  out += ",\"flush_to_zero\":" +
         num(metrics::get(metrics::Gauge::FlushToZero));
  out += ",\"pointer_bits\":" + num(8.0 * sizeof(void*));
  out += '}';

  out += ",\"config\":{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(info_[i].first) + ':' + info_[i].second;
  }
  out += '}';

  out += ",\"metrics\":[";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const BenchMetric& m = metrics_[i];
    if (i > 0) out += ',';
    out += "{\"key\":" + json_string(m.key) + ",\"value\":" + num(m.value) +
           ",\"unit\":" + json_string(m.unit) +
           ",\"gate\":" + (m.gate ? "true" : "false") +
           ",\"higher_is_better\":" + (m.higher_is_better ? "true" : "false") +
           '}';
  }
  out += ']';

  out += ",\"counters\":{";
  {
    const auto counts = metrics::snapshot();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ',';
      out += json_string(counts[i].first) + ':' +
             std::to_string(counts[i].second);
    }
  }
  out += '}';

  out += ",\"accums\":{";
  for (int a = 0; a < static_cast<int>(metrics::Accum::kCount); ++a) {
    const auto acc = static_cast<metrics::Accum>(a);
    if (a > 0) out += ',';
    out += json_string(metrics::name(acc)) + ':' + num(metrics::seconds(acc));
  }
  out += '}';

  // Histograms: only non-empty ones, as summary stats (the decade buckets
  // stay internal — count/sum/min/max/last are what the gates and the serve
  // latency report consume).
  out += ",\"hists\":{";
  {
    bool first = true;
    for (int h = 0; h < static_cast<int>(metrics::Hist::kCount); ++h) {
      const auto hist_id = static_cast<metrics::Hist>(h);
      const metrics::HistSnapshot snap = metrics::hist(hist_id);
      if (snap.count == 0) continue;
      if (!first) out += ',';
      first = false;
      out += json_string(metrics::name(hist_id)) + ":{";
      out += "\"count\":" + std::to_string(snap.count);
      out += ",\"sum\":" + num(snap.sum);
      out += ",\"mean\":" + num(snap.mean());
      out += ",\"min\":" + num(snap.min);
      out += ",\"max\":" + num(snap.max);
      out += ",\"last\":" + num(snap.last);
      out += '}';
    }
  }
  out += '}';

  out += ",\"health\":";
  out += health::report().json();

  out += ",\"spans\":[";
  {
    const auto spans = summary();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanStats& s = spans[i];
      if (i > 0) out += ',';
      out += "{\"name\":" + json_string(s.name) +
             ",\"count\":" + std::to_string(s.count) +
             ",\"total_s\":" + num(s.total_s) + ",\"min_s\":" + num(s.min_s) +
             ",\"p50_s\":" + num(s.p50_s) + ",\"max_s\":" + num(s.max_s) + '}';
    }
  }
  out += "]}";
  return out;
}

std::string artifact_dir() {
  const char* dir = std::getenv("FSI_BENCH_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? dir : "bench/artifacts";
  while (path.size() > 1 && path.back() == '/') path.pop_back();
  std::error_code ec;
  std::filesystem::create_directories(path, ec);  // best effort; open reports
  return path;
}

std::string BenchTelemetry::write() const {
  const std::string path = artifact_dir() + "/BENCH_" + name_ + ".json";
  return write_text_file(path, json()) ? path : "";
}

}  // namespace fsi::obs

#include "fsi/obs/health.hpp"

#include <atomic>
#include <cfenv>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "fsi/obs/env.hpp"
#include "fsi/obs/json.hpp"
#include "fsi/obs/log.hpp"

namespace fsi::obs::health {
namespace {

std::atomic<bool> g_enabled{env_flag("FSI_HEALTH", true)};

std::atomic<int> g_sample_every{[] {
  const long v = env_long("FSI_HEALTH_SAMPLE", 4);
  return static_cast<int>(v < 0 ? 0 : v);
}()};

/// Shared residual-sampling tick; fetch_add is fine here — this is hit once
/// per FSI call, not per kernel.
std::atomic<std::uint64_t> g_sample_tick{0};

std::atomic<std::uint64_t> g_nonfinite_count{0};

std::mutex& state_mutex() {
  static std::mutex m;
  return m;
}

Thresholds& thresholds_locked() {
  static Thresholds t = [] {
    Thresholds init;
    init.drift_warn = env_double("FSI_HEALTH_DRIFT_WARN", init.drift_warn);
    init.drift_fail = env_double("FSI_HEALTH_DRIFT_FAIL", init.drift_fail);
    init.cond_warn = env_double("FSI_HEALTH_COND_WARN", init.cond_warn);
    init.cond_fail = env_double("FSI_HEALTH_COND_FAIL", init.cond_fail);
    init.resid_warn = env_double("FSI_HEALTH_RESID_WARN", init.resid_warn);
    init.resid_fail = env_double("FSI_HEALTH_RESID_FAIL", init.resid_fail);
    return init;
  }();
  return t;
}

/// Bounded drift ring and the last nonfinite location, both cold-path.
struct ColdState {
  double drift_ring[kDriftHistoryCapacity] = {};
  std::size_t drift_total = 0;  ///< samples ever pushed (head = total % cap)
  std::string nonfinite_where;
};

ColdState& cold_locked() {
  static ColdState s;
  return s;
}

Status classify(double worst, std::uint64_t count, double warn,
                double fail) noexcept {
  if (count == 0) return Status::Ok;
  if (!std::isfinite(worst) || worst >= fail) return Status::Fail;
  if (worst >= warn) return Status::Warn;
  return Status::Ok;
}

/// Per-histogram streaming status, so WARN/FAIL *transitions* (and
/// recoveries) reach the operational log the moment they happen instead of
/// waiting for someone to ask for a report().
std::atomic<int> g_stream_status[static_cast<int>(metrics::Hist::kCount)] = {};

/// Record \p value into \p h and log a status transition, if any.
void observe(metrics::Hist h, double value, double warn,
             double fail) noexcept {
  metrics::record(h, value);
  const Status now = classify(value, 1, warn, fail);
  const int prev = g_stream_status[static_cast<int>(h)].exchange(
      static_cast<int>(now), std::memory_order_relaxed);
  if (prev == static_cast<int>(now)) return;
  const char* check = metrics::name(h);
  if (now == Status::Fail) {
    FSI_LOG_ERROR("health.fail", {"check", check}, {"value", value},
                  {"threshold", fail});
  } else if (now == Status::Warn) {
    FSI_LOG_WARN("health.warn", {"check", check}, {"value", value},
                 {"threshold", warn});
  } else {
    FSI_LOG_INFO("health.recovered", {"check", check}, {"value", value});
  }
}

CheckRow hist_row(metrics::Hist h, double warn, double fail) {
  const metrics::HistSnapshot s = metrics::hist(h);
  CheckRow row;
  row.name = metrics::name(h);
  row.count = s.count;
  row.last = s.last;
  row.worst = s.max;
  row.warn = warn;
  row.fail = fail;
  row.status = classify(s.max, s.count, warn, fail);
  return row;
}

}  // namespace

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::Ok: return "OK";
    case Status::Warn: return "WARN";
    case Status::Fail: return "FAIL";
  }
  return "?";
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

int sample_every() noexcept {
  return g_sample_every.load(std::memory_order_relaxed);
}

void set_sample_every(int every) noexcept {
  g_sample_every.store(every < 0 ? 0 : every, std::memory_order_relaxed);
}

Thresholds thresholds() noexcept {
  std::lock_guard<std::mutex> lock(state_mutex());
  return thresholds_locked();
}

void set_thresholds(const Thresholds& t) noexcept {
  std::lock_guard<std::mutex> lock(state_mutex());
  thresholds_locked() = t;
}

void record_drift(double drift) noexcept {
  if (!enabled()) return;
  const Thresholds t = thresholds();  // before state_mutex: shares the lock
  observe(metrics::Hist::WrapDrift, drift, t.drift_warn, t.drift_fail);
  std::lock_guard<std::mutex> lock(state_mutex());
  ColdState& s = cold_locked();
  s.drift_ring[s.drift_total % kDriftHistoryCapacity] = drift;
  ++s.drift_total;
}

void record_cond1(double cond) noexcept {
  if (!enabled()) return;
  const Thresholds t = thresholds();
  observe(metrics::Hist::Cond1Reduced, cond, t.cond_warn, t.cond_fail);
}

void record_residual(double resid) noexcept {
  if (!enabled()) return;
  const Thresholds t = thresholds();
  observe(metrics::Hist::SelResidual, resid, t.resid_warn, t.resid_fail);
}

void record_nonfinite(const char* where) noexcept {
  if (!enabled()) return;
  g_nonfinite_count.fetch_add(1, std::memory_order_relaxed);
  FSI_LOG_ERROR("health.nonfinite", {"where", where != nullptr ? where : "?"});
  std::lock_guard<std::mutex> lock(state_mutex());
  cold_locked().nonfinite_where = where != nullptr ? where : "?";
}

bool should_sample_residual() noexcept {
  if (!enabled()) return false;
  const int every = sample_every();
  if (every <= 0) return false;
  return g_sample_tick.fetch_add(1, std::memory_order_relaxed) %
             static_cast<std::uint64_t>(every) ==
         0;
}

std::vector<double> drift_history() {
  std::lock_guard<std::mutex> lock(state_mutex());
  const ColdState& s = cold_locked();
  const std::size_t n = s.drift_total < kDriftHistoryCapacity
                            ? s.drift_total
                            : kDriftHistoryCapacity;
  std::vector<double> out;
  out.reserve(n);
  const std::size_t start = s.drift_total - n;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(s.drift_ring[(start + i) % kDriftHistoryCapacity]);
  return out;
}

HealthReport report() {
  const Thresholds t = thresholds();
  HealthReport rep;
  rep.rows.push_back(
      hist_row(metrics::Hist::WrapDrift, t.drift_warn, t.drift_fail));
  rep.rows.push_back(
      hist_row(metrics::Hist::Cond1Reduced, t.cond_warn, t.cond_fail));
  rep.rows.push_back(
      hist_row(metrics::Hist::SelResidual, t.resid_warn, t.resid_fail));

  // NaN/Inf in a result matrix: the numbers are gone, unconditional FAIL.
  {
    CheckRow row;
    row.name = "nonfinite";
    row.count = g_nonfinite_count.load(std::memory_order_relaxed);
    row.last = row.worst = static_cast<double>(row.count);
    row.status = row.count > 0 ? Status::Fail : Status::Ok;
    if (row.count > 0) {
      std::lock_guard<std::mutex> lock(state_mutex());
      row.note = cold_locked().nonfinite_where;
    }
    rep.rows.push_back(std::move(row));
  }

  // Accumulated IEEE exception flags.  invalid/divbyzero mean a meaningless
  // operation happened somewhere (possibly masked later) -> WARN; overflow/
  // underflow are routine in long B-chain products and deliberately explored
  // by the stabilisation ablations, so they are reported but stay OK.
  {
    CheckRow row;
    row.name = "fp_flags";
    const int raised = std::fetestexcept(FE_INVALID | FE_DIVBYZERO |
                                         FE_OVERFLOW | FE_UNDERFLOW);
    auto flag = [&](int f, const char* label) {
      if ((raised & f) == 0) return;
      ++row.count;
      if (!row.note.empty()) row.note += ' ';
      row.note += label;
    };
    flag(FE_INVALID, "invalid");
    flag(FE_DIVBYZERO, "divbyzero");
    flag(FE_OVERFLOW, "overflow");
    flag(FE_UNDERFLOW, "underflow");
    row.last = row.worst = static_cast<double>(raised);
    row.status = (raised & (FE_INVALID | FE_DIVBYZERO)) != 0 ? Status::Warn
                                                             : Status::Ok;
    rep.rows.push_back(std::move(row));
  }

  rep.drift_history = drift_history();
  for (const CheckRow& r : rep.rows)
    if (static_cast<int>(r.status) > static_cast<int>(rep.overall))
      rep.overall = r.status;
  return rep;
}

std::string HealthReport::str() const {
  std::string out =
      "check           status  samples       last      worst       warn    "
      "   fail  note\n";
  char line[256];
  for (const CheckRow& r : rows) {
    std::snprintf(line, sizeof line,
                  "%-15s %-6s %8llu %10.3g %10.3g %10.3g %10.3g  %s\n",
                  r.name.c_str(), status_name(r.status),
                  static_cast<unsigned long long>(r.count), r.last, r.worst,
                  r.warn, r.fail, r.note.c_str());
    out += line;
  }
  std::snprintf(line, sizeof line, "overall: %s\n", status_name(overall));
  out += line;
  return out;
}

std::string HealthReport::json() const {
  std::string out = "{\"schema\":\"";
  out += kHealthSchema;
  out += "\",\"overall\":\"";
  out += status_name(overall);
  out += "\",\"checks\":[";
  char buf[256];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CheckRow& r = rows[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + json_string(r.name) + ",\"status\":\"";
    out += status_name(r.status);
    std::snprintf(buf, sizeof buf,
                  "\",\"count\":%llu,\"last\":%.6g,\"worst\":%.6g,"
                  "\"warn\":%.6g,\"fail\":%.6g,\"note\":",
                  static_cast<unsigned long long>(r.count), r.last, r.worst,
                  r.warn, r.fail);
    out += buf;
    out += json_string(r.note) + '}';
  }
  out += "],\"drift_history\":[";
  for (std::size_t i = 0; i < drift_history.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof buf, "%.6g", drift_history[i]);
    out += buf;
  }
  out += "]}";
  return out;
}

void HealthReport::print() const { std::fputs(str().c_str(), stdout); }

void reset() noexcept {
  metrics::reset(metrics::Hist::WrapDrift);
  metrics::reset(metrics::Hist::Cond1Reduced);
  metrics::reset(metrics::Hist::SelResidual);
  g_nonfinite_count.store(0, std::memory_order_relaxed);
  g_sample_tick.store(0, std::memory_order_relaxed);
  for (auto& s : g_stream_status)
    s.store(static_cast<int>(Status::Ok), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(state_mutex());
    ColdState& s = cold_locked();
    s.drift_total = 0;
    s.nonfinite_where.clear();
  }
  std::feclearexcept(FE_ALL_EXCEPT);
}

}  // namespace fsi::obs::health

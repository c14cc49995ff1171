#include "fsi/obs/report.hpp"

#include <cstdio>

#include "fsi/obs/json.hpp"

namespace fsi::obs {

void Report::add_stage(std::string name, double measured_s,
                       double measured_flops, double predicted_flops) {
  rows_.push_back(
      {std::move(name), measured_s, measured_flops, predicted_flops});
}

StageRow Report::total() const {
  StageRow t;
  t.name = "total";
  for (const StageRow& r : rows_) {
    t.measured_s += r.measured_s;
    t.measured_flops += r.measured_flops;
    t.predicted_flops += r.predicted_flops;
  }
  return t;
}

namespace {

void format_row(std::string& out, const StageRow& r, double ref) {
  char line[160];
  std::snprintf(line, sizeof line, "%-8s %10.4f %9.1f %11.4f %10.0f%%\n",
                r.name.c_str(), r.measured_s, r.gflops(), r.predicted_s(ref),
                r.pct_of_predicted(ref));
  out += line;
}

}  // namespace

std::string Report::str() const {
  char head[160];
  std::snprintf(head, sizeof head,
                "stage      wall s   GFLOP/s     model s   %% of model   "
                "(model priced at %.1f GFLOP/s)\n",
                ref_gflops_);
  std::string out = head;
  for (const StageRow& r : rows_) format_row(out, r, ref_gflops_);
  format_row(out, total(), ref_gflops_);
  return out;
}

std::string Report::json() const {
  char buf[256];
  std::string out = "{\"ref_gflops\":";
  std::snprintf(buf, sizeof buf, "%.6g", ref_gflops_);
  out += buf;
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const StageRow& r = rows_[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + json_string(r.name);
    std::snprintf(buf, sizeof buf,
                  ",\"measured_s\":%.6g,\"measured_flops\":"
                  "%.6g,\"gflops\":%.6g,\"predicted_flops\":%.6g,"
                  "\"predicted_s\":%.6g,\"pct_of_predicted\":%.6g}",
                  r.measured_s, r.measured_flops, r.gflops(),
                  r.predicted_flops, r.predicted_s(ref_gflops_),
                  r.pct_of_predicted(ref_gflops_));
    out += buf;
  }
  out += "]}";
  return out;
}

void Report::print() const { std::fputs(str().c_str(), stdout); }

}  // namespace fsi::obs

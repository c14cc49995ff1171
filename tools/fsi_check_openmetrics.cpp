/// \file fsi_check_openmetrics.cpp
/// \brief Validate an OpenMetrics text exposition read from a file or stdin.
///
/// Usage:
///   fsi_check_openmetrics [file]            # default (or "-"): stdin
///   fsi_check_openmetrics --require NAME    # additionally require family
///                                           # NAME (repeatable)
///
/// Runs the same grammar checker as the exporter tests
/// (fsi/obs/openmetrics_check.hpp) over a document scraped from outside
/// the process, e.g. a live daemon's `GET /metrics` in tools/serve_smoke.sh.
///
/// Exit status: 0 with a one-line summary on success; 1 with the offending
/// line on the first violation, a missing required family or an unreadable
/// file; 2 on a usage error.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fsi/obs/json.hpp"
#include "fsi/obs/openmetrics_check.hpp"

int main(int argc, char** argv) {
  std::string path = "-";
  std::vector<std::string> required;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require" && i + 1 < argc) {
      required.push_back(argv[++i]);
    } else if (arg.rfind("--require=", 0) == 0) {
      required.push_back(arg.substr(10));
    } else if (arg == "-" || arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: fsi_check_openmetrics [file] [--require NAME]...\n");
      return 2;
    }
  }

  // An unreadable file reads as "", which fails the check like an empty one.
  const std::string text =
      fsi::obs::read_text_file(path == "-" ? "/dev/stdin" : path);
  fsi::obs::OpenMetricsChecker checker;
  if (!checker.check(text)) {
    std::fprintf(stderr, "check_openmetrics: FAIL: %s\n",
                 checker.error().c_str());
    return 1;
  }
  std::string missing;
  for (const std::string& name : required)
    if (checker.families().count(name) == 0)
      missing += (missing.empty() ? "" : ", ") + name;
  if (!missing.empty()) {
    std::fprintf(stderr,
                 "check_openmetrics: FAIL: required families missing: %s\n",
                 missing.c_str());
    return 1;
  }
  std::printf("check_openmetrics: OK (%zu families, %zu lines)\n",
              checker.families().size(),
              static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')));
  return 0;
}

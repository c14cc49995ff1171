#pragma once
/// \file openmetrics_check.hpp
/// \brief Header-only grammar checker for OpenMetrics text exposition.
///
/// The one validator of what exporter.hpp renders: the exporter unit test
/// and the live-scrape serve test call it in-process, and the
/// fsi_check_openmetrics tool runs it over a scraped file in shell
/// pipelines (tools/serve_smoke.sh).
///
/// Validates the subset the fsi exporter (and any conforming scraper)
/// relies on:
///   - every family is announced by `# HELP` then `# TYPE` before any of
///     its samples, and families are contiguous (no interleaving);
///   - the TYPE is one of counter | gauge | histogram | info;
///   - counter samples end in `_total`, info samples in `_info`;
///   - histogram families expose `_bucket{le="..."}` series with strictly
///     increasing `le` bounds ending at `+Inf`, cumulative (non-decreasing)
///     bucket counts, and a `_sum`/`_count` pair where `_count` equals the
///     `+Inf` bucket;
///   - the document ends with exactly `# EOF\n`.
///
/// On success the checker retains every unlabelled sample value so tests
/// can assert on specific series (value_of("fsi_flops_total")).

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace fsi::obs {

class OpenMetricsChecker {
 public:
  /// Parse and validate; false sets error() to the offending line + reason.
  bool check(const std::string& text) {
    families_.clear();
    values_.clear();
    buckets_.clear();
    error_.clear();
    if (text.empty() || text.back() != '\n')
      return fail("document must end with a newline");

    std::vector<std::string> lines;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i)
      if (text[i] == '\n') {
        lines.push_back(text.substr(start, i - start));
        start = i + 1;
      }
    if (lines.empty() || lines.back() != "# EOF")
      return fail("document must end with '# EOF'");
    lines.pop_back();

    std::string family;       // family currently open for samples
    std::string family_type;  // its TYPE
    bool have_type = false;   // TYPE seen for the open family
    bool have_sample = false; // at least one sample seen
    std::set<std::string> closed;  // families already completed

    auto close_family = [&]() -> bool {
      if (family.empty()) return true;
      if (!have_type) return fail("family without TYPE: " + family);
      if (!have_sample) return fail("family without samples: " + family);
      if (family_type == "histogram" && !check_histogram(family)) return false;
      closed.insert(family);
      family.clear();
      return true;
    };

    for (const std::string& line : lines) {
      if (line.empty()) return fail("empty line inside document");
      if (line == "# EOF") return fail("'# EOF' before end of document");
      if (line.rfind("# HELP ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string::npos || sp == 0)
          return fail("malformed HELP: " + line);
        const std::string name = rest.substr(0, sp);
        if (!close_family()) return false;
        if (closed.count(name) != 0)
          return fail("family reopened (interleaved): " + name);
        family = name;
        have_type = false;
        have_sample = false;
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string::npos) return fail("malformed TYPE: " + line);
        const std::string name = rest.substr(0, sp);
        const std::string type = rest.substr(sp + 1);
        if (name != family)
          return fail("TYPE for '" + name + "' but open family is '" +
                      family + "'");
        if (have_type) return fail("duplicate TYPE: " + name);
        if (have_sample) return fail("TYPE after samples: " + name);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "info")
          return fail("unknown TYPE '" + type + "' for " + name);
        family_type = type;
        have_type = true;
        families_[family] = type;
        continue;
      }
      if (line[0] == '#') return fail("unknown comment: " + line);

      // Sample line: <name>[{labels}] <value>
      if (family.empty() || !have_type)
        return fail("sample outside a family: " + line);
      std::size_t name_end = line.find_first_of("{ ");
      if (name_end == std::string::npos)
        return fail("malformed sample: " + line);
      const std::string sample = line.substr(0, name_end);
      std::string labels;
      std::size_t value_at = name_end;
      if (line[name_end] == '{') {
        const std::size_t close = line.find('}', name_end);
        if (close == std::string::npos)
          return fail("unterminated labels: " + line);
        labels = line.substr(name_end + 1, close - name_end - 1);
        value_at = close + 1;
      }
      if (value_at >= line.size() || line[value_at] != ' ')
        return fail("missing value: " + line);
      const std::string value_text = line.substr(value_at + 1);
      char* end = nullptr;
      double value;
      if (value_text == "+Inf") value = HUGE_VAL;
      else if (value_text == "-Inf") value = -HUGE_VAL;
      else if (value_text == "NaN") value = NAN;
      else {
        value = std::strtod(value_text.c_str(), &end);
        if (end == value_text.c_str() || *end != '\0')
          return fail("unparsable value: " + line);
      }

      // Suffix rules per type.
      const std::string suffix =
          sample.rfind(family, 0) == 0 ? sample.substr(family.size()) : "?";
      bool suffix_ok = false;
      if (family_type == "counter") suffix_ok = suffix == "_total";
      else if (family_type == "gauge") suffix_ok = suffix.empty();
      else if (family_type == "info") suffix_ok = suffix == "_info";
      else if (family_type == "histogram")
        suffix_ok = suffix == "_bucket" || suffix == "_sum" ||
                    suffix == "_count";
      if (!suffix_ok)
        return fail("sample '" + sample + "' invalid for " + family_type +
                    " family " + family);
      if (family_type == "histogram" && suffix == "_bucket") {
        const std::string le = label_value(labels, "le");
        if (le.empty()) return fail("bucket without le label: " + line);
        buckets_[family].emplace_back(
            le == "+Inf" ? HUGE_VAL : std::strtod(le.c_str(), nullptr),
            value);
      }
      have_sample = true;
      if (labels.empty()) values_[sample] = value;
    }
    return close_family();
  }

  const std::string& error() const { return error_; }
  /// family name -> TYPE, for every family seen.
  const std::map<std::string, std::string>& families() const {
    return families_;
  }
  bool has_value(const std::string& sample) const {
    return values_.count(sample) != 0;
  }
  double value_of(const std::string& sample) const {
    const auto it = values_.find(sample);
    return it != values_.end() ? it->second : NAN;
  }

 private:
  bool fail(const std::string& why) {
    error_ = why;
    return false;
  }

  static std::string label_value(const std::string& labels,
                                 const std::string& key) {
    const std::string needle = key + "=\"";
    const std::size_t at = labels.find(needle);
    if (at == std::string::npos) return "";
    const std::size_t start = at + needle.size();
    const std::size_t end = labels.find('"', start);
    if (end == std::string::npos) return "";
    return labels.substr(start, end - start);
  }

  bool check_histogram(const std::string& family) {
    const auto& bs = buckets_[family];
    if (bs.empty()) return fail("histogram without buckets: " + family);
    if (!std::isinf(bs.back().first))
      return fail("histogram missing +Inf bucket: " + family);
    for (std::size_t i = 1; i < bs.size(); ++i) {
      if (!(bs[i].first > bs[i - 1].first))
        return fail("le bounds not increasing: " + family);
      if (bs[i].second < bs[i - 1].second)
        return fail("bucket counts not cumulative: " + family);
    }
    if (!has_value(family + "_sum") || !has_value(family + "_count"))
      return fail("histogram missing _sum/_count: " + family);
    if (value_of(family + "_count") != bs.back().second)
      return fail("_count != +Inf bucket: " + family);
    return true;
  }

  std::map<std::string, std::string> families_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets_;
  std::string error_;
};

}  // namespace fsi::obs

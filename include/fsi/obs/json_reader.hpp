#pragma once
/// \file json_reader.hpp
/// \brief Minimal header-only JSON reader for tools and tests.
///
/// The library itself only writes JSON (json.hpp); this reader parses it
/// back: fsi_postmortem loads crash dumps with it, and the obs tests check
/// that exported traces, telemetry, health reports and log lines parse and
/// carry the expected values.  It accepts full JSON (objects, arrays,
/// strings with every escape, numbers, literals) so a hand-edited dump
/// still loads; a \u escape beyond ASCII reads as '?'.  Numbers keep their
/// literal text, for exact u64 round trips.

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace fsi::obs {

struct Json {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  std::string raw;  ///< number literal as written
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  /// The member \p key of an object, or nullptr.
  const Json* find(const char* key) const {
    if (kind != Kind::Obj) return nullptr;
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
  std::string str_or(const char* key, const char* fallback) const {
    const Json* v = find(key);
    return (v != nullptr && v->kind == Kind::Str) ? v->str : fallback;
  }
  std::uint64_t u64_or(const char* key, std::uint64_t fallback) const {
    const Json* v = find(key);
    if (v == nullptr || v->kind != Kind::Num) return fallback;
    return std::strtoull(v->raw.c_str(), nullptr, 10);
  }
  std::int64_t i64_or(const char* key, std::int64_t fallback) const {
    const Json* v = find(key);
    if (v == nullptr || v->kind != Kind::Num) return fallback;
    return std::strtoll(v->raw.c_str(), nullptr, 10);
  }

  /// Every string value and number literal stored directly under \p key,
  /// anywhere in the document (e.g. each "name" of a trace's events).
  std::set<std::string> values_for(const std::string& key) const {
    std::set<std::string> out;
    collect(key, &out);
    return out;
  }

 private:
  void collect(const std::string& key, std::set<std::string>* out) const {
    for (const Json& v : arr) v.collect(key, out);
    for (const auto& [k, v] : obj) {
      if (k == key && v.kind == Kind::Str) out->insert(v.str);
      if (k == key && v.kind == Kind::Num) out->insert(v.raw);
      v.collect(key, out);
    }
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  /// Parse the whole text into \p out; false on any syntax error or
  /// trailing junk.
  bool parse(Json* out) {
    pos_ = 0;
    if (!value(out)) return false;
    ws();
    return pos_ == s_.size();
  }

 private:
  void ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool lit(const char* t, Json* out, Json::Kind k, bool bval) {
    const std::size_t n = std::strlen(t);
    if (s_.compare(pos_, n, t) != 0) return false;
    pos_ += n;
    out->kind = k;
    out->b = bval;
    return true;
  }
  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned cp = 0;
            for (int k = 0; k < 4; ++k) {
              const auto h = static_cast<unsigned char>(s_[pos_++]);
              if (!std::isxdigit(h)) return false;
              cp = cp * 16 + static_cast<unsigned>(
                                 std::isdigit(h) ? h - '0'
                                                 : std::tolower(h) - 'a' + 10);
            }
            c = cp < 0x80 ? static_cast<char>(cp) : '?';
            break;
          }
          default: c = e; break;
        }
      }
      *out += c;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number(Json* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool digits = false;
    auto eat = [&] {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat();
    if (pos_ < s_.size() && s_[pos_] == '.') ++pos_, eat();
    if (!digits) return false;
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      const std::size_t before = pos_;
      eat();
      if (pos_ == before) return false;
    }
    out->kind = Json::Kind::Num;
    out->raw = s_.substr(start, pos_ - start);
    return true;
  }
  bool value(Json* out) {
    ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      const bool is_obj = c == '{';
      const char close = is_obj ? '}' : ']';
      out->kind = is_obj ? Json::Kind::Obj : Json::Kind::Arr;
      ++pos_;
      ws();
      if (pos_ < s_.size() && s_[pos_] == close) return ++pos_, true;
      while (true) {
        ws();
        std::string key;
        if (is_obj) {
          if (!string(&key)) return false;
          ws();
          if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        }
        Json v;
        if (!value(&v)) return false;
        if (is_obj)
          out->obj.emplace_back(std::move(key), std::move(v));
        else
          out->arr.push_back(std::move(v));
        ws();
        if (pos_ >= s_.size()) return false;
        const char sep = s_[pos_++];
        if (sep != ',') return sep == close;
      }
    }
    if (c == '"') {
      out->kind = Json::Kind::Str;
      return string(&out->str);
    }
    if (c == 't') return lit("true", out, Json::Kind::Bool, true);
    if (c == 'f') return lit("false", out, Json::Kind::Bool, false);
    if (c == 'n') return lit("null", out, Json::Kind::Null, false);
    return number(out);
  }

  std::string s_;
  std::size_t pos_ = 0;
};

/// Parse \p text into \p out; false on a syntax error or trailing junk.
inline bool parse_json(std::string text, Json* out) {
  return JsonParser(std::move(text)).parse(out);
}

}  // namespace fsi::obs

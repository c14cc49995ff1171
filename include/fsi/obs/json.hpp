#pragma once
/// \file json.hpp
/// \brief The one JSON string writer and text-file helpers of the obs layer.
///
/// Every JSON document the library emits (chrome traces, BENCH_*.json,
/// health reports, JSONL log lines) quotes its strings through
/// json_string(), and every whole-file artifact goes through
/// write_text_file().  The crash handler's dump writer (flight.cpp) is the
/// one exception: it runs in a signal handler and must not allocate.
/// Reading JSON back is json_reader.hpp's job (tools and tests only).

#include <string>
#include <string_view>

namespace fsi::obs {

/// \p s as a JSON string literal: wrapped in double quotes, with `"` and
/// `\` backslash-escaped, newline/CR/tab as \n \r \t and every other
/// control character as \u00XX.  Bytes >= 0x20 pass through unchanged.
std::string json_string(std::string_view s);

/// Write \p text to \p path, replacing the file.  False on any I/O error.
bool write_text_file(const std::string& path, const std::string& text);

/// The whole content of \p path, or "" when it cannot be read.
std::string read_text_file(const std::string& path);

}  // namespace fsi::obs

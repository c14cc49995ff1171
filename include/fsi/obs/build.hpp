#pragma once
/// \file build.hpp
/// \brief Build-info stamping: one set of provenance fields for every
/// surface a build identifies itself on.
///
/// The same {version, git SHA, compiler, build type, flags} tuple appears in
/// `--version` output of the operational tools, the `build` section of
/// every BENCH_*.json telemetry document, the StatsResponse a live daemon
/// answers, and the crash dumps the flight recorder writes — so a stats
/// poll, a bench artifact and a post-mortem can all be matched to the exact
/// binary that produced them.
///
/// The git SHA and flags are captured by CMake at configure time
/// (src/obs/build_info.hpp.in); the compiler string is the compile-time
/// __VERSION__.  All fields are string literals with static storage, so
/// build_info() is safe to call from an async-signal context (the crash
/// handler embeds them in the dump without any allocation).

#include <string>

namespace fsi::obs {

/// Static build provenance.  Every pointer is a string literal.
struct BuildInfo {
  const char* version;    ///< project version (CMake PROJECT_VERSION)
  const char* git_sha;    ///< short commit SHA at configure time, +dirty
                          ///< suffix when the tree had local edits
  const char* compiler;   ///< compile-time __VERSION__
  const char* build_type; ///< CMAKE_BUILD_TYPE (plus TSan marker)
  const char* cxx_flags;  ///< effective optimisation/arch flags
};

/// The process's build info.  Async-signal-safe (returns static data).
const BuildInfo& build_info() noexcept;

/// Uniform `--version` line for the operational tools:
///   "<tool> <version> (<git_sha>) <compiler> [<build_type>]\n"
std::string version_line(const char* tool);

}  // namespace fsi::obs

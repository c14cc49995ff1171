#include "fsi/obs/build.hpp"

#include "fsi_build_info.hpp"  // CMake-generated (src/obs/build_info.hpp.in)

namespace fsi::obs {

const BuildInfo& build_info() noexcept {
  static constexpr BuildInfo info = {
      FSI_BUILD_VERSION,
      FSI_BUILD_GIT_SHA,
#if defined(__VERSION__)
      __VERSION__,
#else
      "unknown",
#endif
      FSI_BUILD_TYPE,
      FSI_BUILD_CXX_FLAGS,
  };
  return info;
}

std::string version_line(const char* tool) {
  const BuildInfo& b = build_info();
  std::string out = tool;
  out += ' ';
  out += b.version;
  out += " (";
  out += b.git_sha;
  out += ") ";
  out += b.compiler;
  out += " [";
  out += b.build_type;
  out += "]\n";
  return out;
}

}  // namespace fsi::obs

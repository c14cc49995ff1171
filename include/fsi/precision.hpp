#pragma once
/// \file precision.hpp
/// \brief Scalar-precision selection for the FSI pipeline.
///
/// The dense layer is scalar-generic (float/double); this enum selects how
/// one FSI run uses it:
///
///   Fp64  — everything in double.  The default, bit-identical to the
///           pre-generic pipeline; what every correctness bench compares
///           against.
///   Mixed — the error-tolerant stages run in fp32: CLS cluster products
///           multiply demoted B blocks and promote each product to fp64,
///           and the WRP panel walks move demoted blocks through fp32
///           adjacency relations, promoting every stored block.  BSOFI —
///           the stability-critical stage the paper's accuracy claim rests
///           on — always stays fp64.  Every mixed run is health-gated
///           (sampled residual + cond1 of the reduced matrix) and falls
///           back to a full fp64 rerun when the gate trips; see
///           docs/precision.md.
///
/// The enum is wire-stable (serialised in the serve protocol v3 request
/// field), so values must never be renumbered.

#include <cstdint>
#include <string>

namespace fsi {

enum class Precision : std::uint32_t {
  Fp64 = 0,   ///< full double precision (default)
  Mixed = 1,  ///< fp32 CLS + WRP, fp64 BSOFI, health-gated fp64 fallback
};

/// Canonical lower-case name ("fp64", "mixed").
const char* precision_name(Precision p) noexcept;

/// Parse a precision name (case-insensitive; accepts "fp64"/"double"/"64"
/// and "mixed"/"fp32"/"32").  Returns false on anything else, leaving
/// \p out untouched.
bool parse_precision(const std::string& text, Precision& out) noexcept;

/// Value of a wire/env integer as a Precision; false when out of range.
bool precision_from_u32(std::uint32_t v, Precision& out) noexcept;

/// Interpret one FSI_PRECISION value: nullptr/"" selects Fp64; anything
/// unparsable throws util::CheckError naming the value and the accepted
/// spellings.  A typo like FSI_PRECISION=fp16 must not silently run the
/// whole job in fp64 — fail-loud is the only recoverable behavior for a
/// precision selector.  Exposed separately from the cached reader so tests
/// can exercise the error path without mutating the environment.
Precision precision_from_env_value(const char* value);

/// The FSI_PRECISION environment variable ("fp64" when unset).  Read once
/// and cached; throws util::CheckError on an unparsable value (the throw is
/// retried on the next call, so a bad first read does not poison the cache).
Precision precision_from_env();

}  // namespace fsi

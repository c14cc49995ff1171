#pragma once
/// \file adjacency.hpp
/// \brief The adjacency relations between neighbouring Green's-function
/// blocks (Eqs. 4–7 of the paper) — the engine of the FSI wrapping stage.
///
/// Once any block G(k, l) is known, its four neighbours follow from one
/// N x N matrix product:
///   up    : G(k-1, l) = B_k^-1 G(k, l)
///   down  : G(k+1, l) = B_{k+1} G(k, l)
///   left  : G(k, l-1) = G(k, l) B_l
///   right : G(k, l+1) = G(k, l) B_{l+1}^-1
/// with twelve boundary special cases (diagonal / first row / last row /
/// first column / last column / corners) spelled out in the paper and
/// re-derived in 0-based torus indexing in the implementation.
///
/// BlockOps forms every B_i^-1 explicitly, once per block from its LU
/// factorisation, so all four moves are GEMMs.  Every move also applies to
/// a whole *panel* of blocks that share the row index k (a block row,
/// moved up/down) or the column index l (a block column, moved left/right):
/// B_k and B_k^-1 are the same for every block of such a panel, so one
/// GEMM moves them all.  The wrapping stage walks the b seeds of one block
/// row or column of the reduced inverse this way (paper Alg. 2).  The k = 0
/// / L-1 sign flips act on the whole panel; the +-I diagonal correction
/// acts only on the block where the panel meets the diagonal.  All moves
/// are `const` and safe to call concurrently.

#include <vector>

#include "fsi/dense/matrix.hpp"
#include "fsi/pcyclic/pcyclic.hpp"

namespace fsi::pcyclic {

/// Per-matrix context for adjacency moves at scalar \p T: holds B_i (fp64:
/// the matrix's own blocks; fp32: demoted copies) and the explicit
/// inverses B_i^-1 at that scalar.  The fp32 instantiation backs the
/// mixed-precision wrapping stage; indexing still goes through the
/// referenced fp64 matrix, so wrap arithmetic and bounds are shared.
template <typename T>
class BasicBlockOps {
 public:
  using ConstView = dense::BasicConstMatrixView<T>;
  using View = dense::BasicMatrixView<T>;
  using Block = dense::BasicMatrix<T>;

  /// Factor and invert all L blocks (parallelised with OpenMP).  Throws
  /// util::CheckError when a block is singular.
  explicit BasicBlockOps(const PCyclicMatrix& m);

  const PCyclicMatrix& matrix() const { return m_; }
  index_t block_size() const { return m_.block_size(); }
  index_t num_blocks() const { return m_.num_blocks(); }

  /// B[i] at scalar T.
  ConstView b(index_t i) const;
  /// B[i]^-1 at scalar T.
  ConstView inverse(index_t i) const;

  /// Panel moves.  \p g holds G(k, cols[j]) side by side (N x mN) for the
  /// vertical moves, or G(rows[j], l) stacked (mN x N) for the horizontal
  /// ones; \p out (same shape, not aliasing \p g) receives the moved panel.
  /// The indices must be distinct.
  /// G(k-1, cols[j]) for every j   (Eq. 4, all boundary cases).
  void up(index_t k, const std::vector<index_t>& cols, ConstView g,
          View out) const;
  /// G(k+1, cols[j]) for every j   (Eq. 5).
  void down(index_t k, const std::vector<index_t>& cols, ConstView g,
            View out) const;
  /// G(rows[j], l-1) for every j   (Eq. 6).
  void left(const std::vector<index_t>& rows, index_t l, ConstView g,
            View out) const;
  /// G(rows[j], l+1) for every j   (Eq. 7).
  void right(const std::vector<index_t>& rows, index_t l, ConstView g,
             View out) const;

  /// Single-block moves: the panel moves on one block, into a pool-backed
  /// result.
  Block up(index_t k, index_t l, ConstView g) const;
  Block down(index_t k, index_t l, ConstView g) const;
  Block left(index_t k, index_t l, ConstView g) const;
  Block right(index_t k, index_t l, ConstView g) const;

 private:
  const PCyclicMatrix& m_;
  std::vector<Block> b_;    ///< fp32 only: the demoted blocks
  std::vector<Block> inv_;  ///< B_i^-1
};

extern template class BasicBlockOps<double>;
extern template class BasicBlockOps<float>;

using BlockOps = BasicBlockOps<double>;
using BlockOpsF = BasicBlockOps<float>;

}  // namespace fsi::pcyclic

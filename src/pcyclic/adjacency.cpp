#include "fsi/pcyclic/adjacency.hpp"

#include <exception>
#include <type_traits>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/sched/workspace_pool.hpp"

namespace fsi::pcyclic {
namespace {

/// Position of \p target in \p lines, or -1: the panel block (if any) that
/// a move lands on / starts from the diagonal.
index_t position(const std::vector<index_t>& lines, index_t target) {
  for (std::size_t j = 0; j < lines.size(); ++j)
    if (lines[j] == target) return static_cast<index_t>(j);
  return -1;
}

/// A panel of lines.size() blocks spans \p extent = N * lines.size()
/// entries along its long dimension.
void check_panel(index_t extent, index_t n, const std::vector<index_t>& lines) {
  FSI_CHECK(extent == n * static_cast<index_t>(lines.size()),
            "BlockOps: panel must hold one N x N block per index");
}

/// dst += alpha * src (shapes equal).
template <typename T>
void add_scaled(dense::BasicMatrixView<T> dst, T alpha,
                dense::BasicConstMatrixView<T> src) {
  for (index_t j = 0; j < dst.cols(); ++j)
    for (index_t i = 0; i < dst.rows(); ++i) dst(i, j) += alpha * src(i, j);
}

template <typename T>
void add_identity(dense::BasicMatrixView<T> dst) {
  for (index_t d = 0; d < dst.rows(); ++d) dst(d, d) += T(1);
}

}  // namespace

template <typename T>
BasicBlockOps<T>::BasicBlockOps(const PCyclicMatrix& m) : m_(m) {
  const auto l = static_cast<std::size_t>(m.num_blocks());
  if constexpr (std::is_same_v<T, float>) b_.resize(l);
  inv_.resize(l);
  // Invert the L independent B blocks in parallel; exceptions (singular
  // blocks) must not escape the OpenMP region, so stash and rethrow.
  std::exception_ptr error;
#pragma omp parallel for schedule(dynamic)
  for (index_t i = 0; i < m.num_blocks(); ++i) {
    try {
      const auto s = static_cast<std::size_t>(i);
      if constexpr (std::is_same_v<T, float>) b_[s] = dense::demoted(m.b(i));
      inv_[s] = dense::inverse(b(i));
    } catch (...) {
#pragma omp critical
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

template <typename T>
typename BasicBlockOps<T>::ConstView BasicBlockOps<T>::b(index_t i) const {
  FSI_CHECK(i >= 0 && i < num_blocks(), "BlockOps: block index out of range");
  if constexpr (std::is_same_v<T, float>)
    return b_[static_cast<std::size_t>(i)];
  else
    return m_.b(i);
}

template <typename T>
typename BasicBlockOps<T>::ConstView BasicBlockOps<T>::inverse(
    index_t i) const {
  FSI_CHECK(i >= 0 && i < num_blocks(), "BlockOps: block index out of range");
  return inv_[static_cast<std::size_t>(i)];
}

// ---------------------------------------------------------------------------
// 0-based boundary-case tables (derived from the explicit form, Eq. 3; see
// tests/test_pcyclic_adjacency.cpp which checks every case against a dense
// inverse).  B ranges over b(0..L-1) = paper's B_1..B_L; row/col indices are
// 0-based so "first row k=1" becomes k=0 and "last row k=L" becomes k=L-1.
// Per panel block, with s the sign of the move:
//   up    : s B_k^-1 G(k, l)         - [k == l]       s B_k^-1
//   down  : s B_{k+1} G(k, l)        + [k+1 == l]     I
//   left  : s G(k, l) B_l            + [l-1 == k]     I
//   right : s G(k, l) B_{l+1}^-1     - [k == l]       s B_{l+1}^-1
// ---------------------------------------------------------------------------

template <typename T>
void BasicBlockOps<T>::up(index_t k, const std::vector<index_t>& cols,
                          ConstView g, View out) const {
  //  k != l, k != 0 : G(k-1, l) =  B_k^-1  G(k, l)
  //  k == l != 0    : G(k-1, l) =  B_k^-1 (G(k, k) - I)        [diagonal]
  //  k == 0, l != 0 : G(L-1, l) = -B_0^-1  G(0, l)             [first row]
  //  k == 0, l == 0 : G(L-1, 0) = -B_0^-1 (G(0, 0) - I)        [corner]
  const index_t n = block_size();
  check_panel(g.cols(), n, cols);
  const T sign = (k == 0) ? T(-1) : T(1);
  dense::gemm(dense::Trans::No, dense::Trans::No, sign, inverse(k), g, T(0),
              out);
  if (const index_t j = position(cols, k); j >= 0)
    add_scaled(out.block(0, j * n, n, n), -sign, inverse(k));
}

template <typename T>
void BasicBlockOps<T>::down(index_t k, const std::vector<index_t>& cols,
                            ConstView g, View out) const {
  //  generic            : G(k+1, l) =  B_{k+1} G(k, l)
  //  k+1 == l (k!=L-1)  : G(l, l)   =  B_l G(l-1, l) + I       [sub-diagonal]
  //  k == L-1, l != 0   : G(0, l)   = -B_0 G(L-1, l)           [last row]
  //  k == L-1, l == 0   : G(0, 0)   = -B_0 G(L-1, 0) + I       [corner]
  const index_t n = block_size();
  check_panel(g.cols(), n, cols);
  const index_t kn = m_.wrap(k + 1);
  const T sign = (k == num_blocks() - 1) ? T(-1) : T(1);
  dense::gemm(dense::Trans::No, dense::Trans::No, sign, b(kn), g, T(0), out);
  if (const index_t j = position(cols, kn); j >= 0)  // landed on the diagonal
    add_identity(out.block(0, j * n, n, n));
}

template <typename T>
void BasicBlockOps<T>::left(const std::vector<index_t>& rows, index_t l,
                            ConstView g, View out) const {
  //  generic            : G(k, l-1) =  G(k, l) B_l
  //  l == k+1 (k!=L-1)  : G(k, k)   =  G(k, k+1) B_{k+1} + I   [sub-diagonal]
  //  l == 0, k != L-1   : G(k, L-1) = -G(k, 0) B_0             [first column]
  //  l == 0, k == L-1   : G(L-1,L-1)= -G(L-1, 0) B_0 + I       [corner]
  const index_t n = block_size();
  check_panel(g.rows(), n, rows);
  const T sign = (l == 0) ? T(-1) : T(1);
  dense::gemm(dense::Trans::No, dense::Trans::No, sign, g, b(l), T(0), out);
  if (const index_t j = position(rows, m_.wrap(l - 1)); j >= 0)
    add_identity(out.block(j * n, 0, n, n));
}

template <typename T>
void BasicBlockOps<T>::right(const std::vector<index_t>& rows, index_t l,
                             ConstView g, View out) const {
  //  k != l, l != L-1 : G(k, l+1) =  G(k, l) B_{l+1}^-1
  //  k == l != L-1    : G(k, k+1) = (G(k, k) - I) B_{k+1}^-1   [diagonal]
  //  l == L-1, k != l : G(k, 0)   = -G(k, L-1) B_0^-1          [last column]
  //  k == l == L-1    : G(L-1, 0) = -(G(L-1,L-1) - I) B_0^-1   [corner]
  const index_t n = block_size();
  check_panel(g.rows(), n, rows);
  const index_t ln = m_.wrap(l + 1);
  const T sign = (l == num_blocks() - 1) ? T(-1) : T(1);
  dense::gemm(dense::Trans::No, dense::Trans::No, sign, g, inverse(ln), T(0),
              out);
  if (const index_t j = position(rows, l); j >= 0)
    add_scaled(out.block(j * n, 0, n, n), -sign, inverse(ln));
}

template <typename T>
typename BasicBlockOps<T>::Block BasicBlockOps<T>::up(index_t k, index_t l,
                                                      ConstView g) const {
  Block out = sched::acquire_as<T>(block_size(), block_size());
  up(k, {l}, g, out);
  return out;
}

template <typename T>
typename BasicBlockOps<T>::Block BasicBlockOps<T>::down(index_t k, index_t l,
                                                        ConstView g) const {
  Block out = sched::acquire_as<T>(block_size(), block_size());
  down(k, {l}, g, out);
  return out;
}

template <typename T>
typename BasicBlockOps<T>::Block BasicBlockOps<T>::left(index_t k, index_t l,
                                                        ConstView g) const {
  Block out = sched::acquire_as<T>(block_size(), block_size());
  left({k}, l, g, out);
  return out;
}

template <typename T>
typename BasicBlockOps<T>::Block BasicBlockOps<T>::right(index_t k, index_t l,
                                                         ConstView g) const {
  Block out = sched::acquire_as<T>(block_size(), block_size());
  right({k}, l, g, out);
  return out;
}

template class BasicBlockOps<double>;
template class BasicBlockOps<float>;

}  // namespace fsi::pcyclic

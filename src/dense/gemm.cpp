/// \file gemm.cpp
/// \brief Packed, register-blocked, OpenMP-parallel GEMM (double + float).
///
/// Every product at least one micro-tile tall and wide with k >=
/// kGemmPackedMinK takes the packed path; it opens an OpenMP team only past
/// kParallelFlopThreshold, so a 64^3 product runs packed on the calling
/// thread.  Skinny products (rank-k updates, tiny chains) take an unpacked
/// loop.
///
/// Layout follows the classic Goto/BLIS decomposition, simplified to two
/// levels: the k-dimension is blocked by KC; within a k-block, op(A) is
/// packed into MR-row panels and op(B) into NR-column panels (zero-padded at
/// the edges so the micro-kernel always runs a full MR x NR tile).  The
/// (jr, ir) tile loop is OpenMP-workshared with dynamic scheduling; each
/// B-panel (KC x NR) stays resident in L2 while A-panels stream through.
///
/// Transposition is handled entirely in the packing routines, so there is a
/// single micro-kernel for all four trans combinations.  The kernel is a
/// template over the scalar; the fp32 instantiation doubles MR so a micro
/// tile still spans two SIMD vectors and the A panel keeps its 16 KiB
/// L1 footprint.

#include <algorithm>
#include <cstring>
#include <memory>

#include <omp.h>

#include "fsi/dense/blas.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/util/flops.hpp"

namespace fsi::dense {
namespace {

template <typename T>
inline const T& op_at(BasicConstMatrixView<T> a, Trans t, index_t i,
                      index_t j) {
  return t == Trans::No ? a(i, j) : a(j, i);
}

/// Pack op(A)(0:m, pc:pc+kc) into MR-row panels: panel ip holds rows
/// [ip*MR, ip*MR+MR) stored as apack[ip*MR*kc + p*MR + i], zero-padded.
template <typename T>
void pack_a_panel(BasicConstMatrixView<T> a, Trans ta, index_t pc, index_t kc,
                  index_t ir, index_t m, T* dst) {
  constexpr index_t kMr = GemmTile<T>::kMr;
  for (index_t p = 0; p < kc; ++p) {
    T* col = dst + static_cast<std::size_t>(p) * kMr;
    const index_t mr = std::min(kMr, m - ir);
    if (ta == Trans::No) {
      const T* src = &a(ir, pc + p);
      for (index_t i = 0; i < mr; ++i) col[i] = src[i];
    } else {
      for (index_t i = 0; i < mr; ++i) col[i] = a(pc + p, ir + i);
    }
    for (index_t i = mr; i < kMr; ++i) col[i] = T(0);
  }
}

/// Pack op(B)(pc:pc+kc, jr:jr+NR) as bpack[p*NR + j], zero-padded.
template <typename T>
void pack_b_panel(BasicConstMatrixView<T> b, Trans tb, index_t pc, index_t kc,
                  index_t jr, index_t n, T* dst) {
  constexpr index_t kNr = GemmTile<T>::kNr;
  const index_t nr = std::min(kNr, n - jr);
  for (index_t p = 0; p < kc; ++p) {
    T* row = dst + static_cast<std::size_t>(p) * kNr;
    for (index_t j = 0; j < nr; ++j) row[j] = op_at(b, tb, pc + p, jr + j);
    for (index_t j = nr; j < kNr; ++j) row[j] = T(0);
  }
}

/// acc := sum_p apanel(:,p) * bpanel(p,:)^T over the kc-long panels.
template <typename T>
inline void micro_kernel(const T* __restrict ap, const T* __restrict bp,
                         index_t kc, T* __restrict acc) {
  constexpr index_t kMr = GemmTile<T>::kMr;
  constexpr index_t kNr = GemmTile<T>::kNr;
  for (index_t j = 0; j < kNr * kMr; ++j) acc[j] = T(0);
  for (index_t p = 0; p < kc; ++p) {
    const T* a = ap + static_cast<std::size_t>(p) * kMr;
    const T* b = bp + static_cast<std::size_t>(p) * kNr;
    for (index_t j = 0; j < kNr; ++j) {
      const T bj = b[j];
      T* accj = acc + j * kMr;
#pragma omp simd
      for (index_t i = 0; i < kMr; ++i) accj[i] += a[i] * bj;
    }
  }
}

/// Unpacked path for skinny products: no packing, no threading.  Every
/// product is formed, zeros included, so a NaN or Inf in A reaches C as it
/// does on the packed path.
template <typename T>
void gemm_small(Trans ta, Trans tb, T alpha, BasicConstMatrixView<T> a,
                BasicConstMatrixView<T> b, BasicMatrixView<T> c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    T* cj = c.col(j);
    for (index_t p = 0; p < k; ++p) {
      const T bpj = alpha * op_at(b, tb, p, j);
      if (ta == Trans::No) {
        const T* apcol = a.col(p);
#pragma omp simd
        for (index_t i = 0; i < m; ++i) cj[i] += apcol[i] * bpj;
      } else {
        for (index_t i = 0; i < m; ++i) cj[i] += a(p, i) * bpj;
      }
    }
  }
}

}  // namespace

template <typename T>
void gemm(Trans ta, Trans tb, T alpha, BasicConstMatrixView<T> a,
          BasicConstMatrixView<T> b, T beta, BasicMatrixView<T> c) {
  constexpr index_t kMr = GemmTile<T>::kMr;
  constexpr index_t kNr = GemmTile<T>::kNr;
  constexpr index_t kKc = GemmTile<T>::kKc;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  FSI_CHECK(((ta == Trans::No) ? a.rows() : a.cols()) == m, "gemm: op(A) rows mismatch");
  FSI_CHECK(((tb == Trans::No) ? b.rows() : b.cols()) == k, "gemm: op(B) rows mismatch");
  FSI_CHECK(((tb == Trans::No) ? b.cols() : b.rows()) == n, "gemm: op(B) cols mismatch");
  if (m == 0 || n == 0) return;

  // beta pass (not counted as flops, matching the 2mnk convention).
  if (beta == T(0)) {
    for (index_t j = 0; j < n; ++j) std::memset(c.col(j), 0, sizeof(T) * m);
  } else if (beta != T(1)) {
    for (index_t j = 0; j < n; ++j) {
      T* cj = c.col(j);
      for (index_t i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (k == 0 || alpha == T(0)) return;

  const std::size_t work = 2ull * m * n * k;
  util::flops::add(work);
  obs::metrics::add(obs::metrics::Counter::KernelCalls, 1);
  // Algorithmic traffic: read op(A), op(B), read+write C.
  obs::metrics::add(obs::metrics::Counter::BytesMoved,
                    sizeof(T) * (static_cast<std::uint64_t>(m) * k +
                                 static_cast<std::uint64_t>(k) * n +
                                 2ull * m * n));

  if (m < kMr || n < kNr || k < kGemmPackedMinK) {
    gemm_small(ta, tb, alpha, a, b, c);
    return;
  }

  const index_t mtiles = (m + kMr - 1) / kMr;
  const index_t ntiles = (n + kNr - 1) / kNr;
  // Sized for the deepest k-block actually used and left uninitialised:
  // packing writes every element, edge padding included.
  const auto kc_max = static_cast<std::size_t>(std::min(k, kKc));
  const std::unique_ptr<T[]> apack(
      new T[static_cast<std::size_t>(mtiles) * kMr * kc_max]);
  const std::unique_ptr<T[]> bpack(
      new T[static_cast<std::size_t>(ntiles) * kNr * kc_max]);
  auto pack_a = [&](index_t pc, index_t kc, index_t it) {
    pack_a_panel(a, ta, pc, kc, it * kMr, m,
                 apack.get() + static_cast<std::size_t>(it) * kMr * kc);
  };
  auto pack_b = [&](index_t pc, index_t kc, index_t jt) {
    pack_b_panel(b, tb, pc, kc, jt * kNr, n,
                 bpack.get() + static_cast<std::size_t>(jt) * kNr * kc);
  };
  auto tile = [&](index_t kc, index_t jt, index_t it, T* acc) {
    micro_kernel(apack.get() + static_cast<std::size_t>(it) * kMr * kc,
                 bpack.get() + static_cast<std::size_t>(jt) * kNr * kc, kc,
                 acc);
    const index_t ir = it * kMr, jr = jt * kNr;
    const index_t mr = std::min(kMr, m - ir), nr = std::min(kNr, n - jr);
    for (index_t j = 0; j < nr; ++j) {
      T* cj = c.col(jr + j) + ir;
      const T* accj = acc + j * kMr;
      for (index_t i = 0; i < mr; ++i) cj[i] += alpha * accj[i];
    }
  };

  if (work < kParallelFlopThreshold) {
    // One thread, no OpenMP team: opening even a one-thread team costs
    // more than the packing does at 16^3.
    alignas(64) T acc[kMr * kNr];
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      for (index_t it = 0; it < mtiles; ++it) pack_a(pc, kc, it);
      for (index_t jt = 0; jt < ntiles; ++jt) pack_b(pc, kc, jt);
      for (index_t jt = 0; jt < ntiles; ++jt)
        for (index_t it = 0; it < mtiles; ++it) tile(kc, jt, it, acc);
    }
    return;
  }

#pragma omp parallel
  {
    alignas(64) T acc[kMr * kNr];
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);

#pragma omp for nowait
      for (index_t it = 0; it < mtiles; ++it) pack_a(pc, kc, it);
#pragma omp for
      for (index_t jt = 0; jt < ntiles; ++jt) pack_b(pc, kc, jt);
      // implicit barrier: packing complete before tiles are consumed

#pragma omp for collapse(2) schedule(dynamic, 4)
      for (index_t jt = 0; jt < ntiles; ++jt)
        for (index_t it = 0; it < mtiles; ++it) tile(kc, jt, it, acc);
      // implicit barrier: C tile updates complete before packs are reused
    }
  }
}

template void gemm<double>(Trans, Trans, double, ConstMatrixView,
                           ConstMatrixView, double, MatrixView);
template void gemm<float>(Trans, Trans, float, ConstMatrixViewF,
                          ConstMatrixViewF, float, MatrixViewF);

Matrix matmul(ConstMatrixView a, ConstMatrixView b) {
  Matrix c(a.rows(), b.cols());
  gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
  return c;
}

MatrixF matmul(ConstMatrixViewF a, ConstMatrixViewF b) {
  MatrixF c(a.rows(), b.cols());
  gemm(Trans::No, Trans::No, 1.0f, a, b, 0.0f, c);
  return c;
}

}  // namespace fsi::dense

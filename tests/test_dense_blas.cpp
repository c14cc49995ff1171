/// Unit tests for the Level-1/2/3 kernels against naive references,
/// including a parameterised sweep over the sizes / transposes / scalars
/// that exercise both the small serial path and the packed parallel path.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/norms.hpp"
#include "fsi/util/flops.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::dense;
using fsi::testing::expect_close;
using fsi::testing::naive_gemm;
using fsi::testing::random_matrix;

struct GemmCase {
  index_t m, n, k;
  Trans ta, tb;
  double alpha, beta;
};

std::string gemm_case_name(const ::testing::TestParamInfo<GemmCase>& info) {
  const auto& p = info.param;
  std::string s = "m" + std::to_string(p.m) + "n" + std::to_string(p.n) + "k" +
                  std::to_string(p.k);
  s += (p.ta == Trans::No) ? "N" : "T";
  s += (p.tb == Trans::No) ? "N" : "T";
  s += "_i" + std::to_string(info.index);
  return s;
}

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const GemmCase p = GetParam();
  util::Rng rng(42, static_cast<std::uint64_t>(p.m * 131 + p.n * 17 + p.k));
  Matrix a = (p.ta == Trans::No) ? random_matrix(p.m, p.k, rng)
                                 : random_matrix(p.k, p.m, rng);
  Matrix b = (p.tb == Trans::No) ? random_matrix(p.k, p.n, rng)
                                 : random_matrix(p.n, p.k, rng);
  Matrix c = random_matrix(p.m, p.n, rng);
  Matrix c_ref = c;

  gemm(p.ta, p.tb, p.alpha, a, b, p.beta, c);
  naive_gemm(p.ta, p.tb, p.alpha, a, b, p.beta, c_ref);
  expect_close(c, c_ref, 1e-12, "gemm");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(
        // Small path (below the parallel threshold).
        GemmCase{1, 1, 1, Trans::No, Trans::No, 1.0, 0.0},
        GemmCase{3, 5, 7, Trans::No, Trans::No, 2.0, 0.5},
        GemmCase{8, 6, 256, Trans::No, Trans::No, 1.0, 1.0},
        GemmCase{17, 23, 31, Trans::Yes, Trans::No, -1.0, 1.0},
        GemmCase{17, 23, 31, Trans::No, Trans::Yes, 1.0, 0.0},
        GemmCase{17, 23, 31, Trans::Yes, Trans::Yes, 0.5, 2.0},
        // Parallel packed path (>= 2^21 flops), incl. non-multiple-of-tile
        // edges and k crossing the KC=256 blocking boundary.
        GemmCase{128, 128, 128, Trans::No, Trans::No, 1.0, 0.0},
        GemmCase{130, 126, 257, Trans::No, Trans::No, 1.0, 1.0},
        GemmCase{130, 126, 257, Trans::Yes, Trans::No, -2.0, 0.0},
        GemmCase{130, 126, 257, Trans::No, Trans::Yes, 1.0, -1.0},
        GemmCase{130, 126, 257, Trans::Yes, Trans::Yes, 3.0, 0.25},
        GemmCase{97, 203, 511, Trans::No, Trans::No, 1.0, 0.0},
        GemmCase{256, 64, 520, Trans::Yes, Trans::Yes, 1.0, 1.0}),
    gemm_case_name);

TEST(Gemm, ZeroSizedOperandsAreNoOps) {
  Matrix a(0, 5), b(5, 0), c(0, 0);
  EXPECT_NO_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c));

  util::Rng rng(1);
  Matrix a2 = random_matrix(4, 0, rng);
  Matrix b2 = random_matrix(0, 3, rng);
  Matrix c2 = random_matrix(4, 3, rng);
  Matrix c2_before = c2;
  gemm(Trans::No, Trans::No, 1.0, a2, b2, 1.0, c2);  // k = 0: C unchanged
  expect_close(c2, c2_before, 0.0, "k=0 gemm");
}

TEST(Gemm, BetaZeroOverwritesNaNs) {
  // beta = 0 must overwrite even non-finite C contents (BLAS semantics).
  Matrix a = Matrix::identity(4);
  Matrix b = Matrix::identity(4);
  Matrix c(4, 4);
  c.fill(std::numeric_limits<double>::quiet_NaN());
  gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
  expect_close(c, Matrix::identity(4), 0.0, "beta=0");
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(3, 4), b(5, 6), c(3, 6);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c), util::CheckError);
}

TEST(SerialKernels, PinsTheTeamToOneThreadAndRestoresIt) {
  const int before = omp_get_max_threads();
  omp_set_num_threads(3);
  {
    const dense::SerialKernels serial;
    EXPECT_EQ(omp_get_max_threads(), 1);
  }
  EXPECT_EQ(omp_get_max_threads(), 3);
  omp_set_num_threads(before);
}

TEST(Gemm, CountsTwoMnkFlops) {
  Matrix a(32, 48), b(48, 16), c(32, 16);
  util::flops::Scope scope;
  gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
  EXPECT_EQ(scope.elapsed(), 2ull * 32 * 48 * 16);
}

TEST(Gemv, BothTransposes) {
  util::Rng rng(7);
  Matrix a = random_matrix(13, 9, rng);
  std::vector<double> x(13), y9(9), x9(9), y13(13);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : x9) v = rng.uniform(-1, 1);
  for (auto& v : y9) v = rng.uniform(-1, 1);
  for (auto& v : y13) v = rng.uniform(-1, 1);

  // y := 2 A^T x + 0.5 y
  std::vector<double> yref = y9;
  for (index_t j = 0; j < 9; ++j) {
    double dot = 0;
    for (index_t i = 0; i < 13; ++i) dot += a(i, j) * x[i];
    yref[j] = 2.0 * dot + 0.5 * y9[j];
  }
  gemv(Trans::Yes, 2.0, a, x.data(), 0.5, y9.data());
  for (index_t j = 0; j < 9; ++j) EXPECT_NEAR(y9[j], yref[j], 1e-13);

  // y := A x
  std::vector<double> yref2(13, 0.0);
  for (index_t j = 0; j < 9; ++j)
    for (index_t i = 0; i < 13; ++i) yref2[i] += a(i, j) * x9[j];
  gemv(Trans::No, 1.0, a, x9.data(), 0.0, y13.data());
  for (index_t i = 0; i < 13; ++i) EXPECT_NEAR(y13[i], yref2[i], 1e-13);
}

TEST(Ger, RankOneUpdate) {
  util::Rng rng(8);
  Matrix a = random_matrix(6, 4, rng);
  Matrix ref = a;
  std::vector<double> x(6), y(4);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);
  ger(-1.5, x.data(), y.data(), a);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 6; ++i)
      EXPECT_NEAR(a(i, j), ref(i, j) - 1.5 * x[i] * y[j], 1e-14);
}

struct TrsmCase {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
  index_t n, m;
};

using TrsmParam = std::tuple<Side, Uplo, Trans, Diag, index_t, index_t>;

class TrsmTest : public ::testing::TestWithParam<TrsmParam> {};

TEST_P(TrsmTest, SolveThenMultiplyRoundTrips) {
  const auto& t = GetParam();
  const TrsmCase p{std::get<0>(t), std::get<1>(t), std::get<2>(t),
                   std::get<3>(t), std::get<4>(t), std::get<5>(t)};
  util::Rng rng(11, static_cast<std::uint64_t>(p.n * 1000 + p.m));
  // Well-conditioned triangular A.  Unit-diagonal triangulars with O(1)
  // off-diagonals are exponentially ill-conditioned, so damp the
  // off-diagonal part; the nonunit case gets a boosted diagonal instead.
  Matrix a = random_matrix(p.n, p.n, rng);
  const double damp = (p.diag == Diag::Unit) ? 4.0 / p.n : 1.0;
  scal(damp, a);
  for (index_t i = 0; i < p.n; ++i) a(i, i) = 2.0 + rng.uniform();

  const index_t brows = (p.side == Side::Left) ? p.n : p.m;
  const index_t bcols = (p.side == Side::Left) ? p.m : p.n;
  Matrix b = random_matrix(brows, bcols, rng);
  Matrix x = b;
  trsm(p.side, p.uplo, p.trans, p.diag, 2.0, a, x);

  // Multiply back with trmm and compare against 2 * B.
  Matrix back = x;
  trmm(p.side, p.uplo, p.trans, p.diag, 1.0, a, back);
  Matrix twob = b;
  scal(2.0, twob);
  expect_close(back, twob, 1e-11, "trsm/trmm round trip");
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, TrsmTest,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit),
                       ::testing::Values(index_t{37}, index_t{150}),
                       ::testing::Values(index_t{21})),
    [](const auto& info) {
      const auto& p = info.param;
      std::string s;
      s += (std::get<0>(p) == Side::Left) ? "L" : "R";
      s += (std::get<1>(p) == Uplo::Lower) ? "lo" : "up";
      s += (std::get<2>(p) == Trans::No) ? "N" : "T";
      s += (std::get<3>(p) == Diag::NonUnit) ? "n" : "u";
      s += std::to_string(std::get<4>(p));
      return s;
    });

TEST(Trtri, InverseOfTriangularIsInverse) {
  util::Rng rng(13);
  for (index_t n : {5, 64, 130}) {
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      Matrix a = fsi::testing::random_matrix(n, n, rng);
      for (index_t i = 0; i < n; ++i) a(i, i) = 2.0 + rng.uniform();
      // Zero the opposite triangle to build an explicit triangular matrix.
      Matrix t(n, n);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i)
          if ((uplo == Uplo::Upper && i <= j) || (uplo == Uplo::Lower && i >= j))
            t(i, j) = a(i, j);
      Matrix tinv = t;
      MatrixView tv = tinv;
      trtri(uplo, Diag::NonUnit, tv);
      Matrix prod = matmul(t, tinv);
      expect_close(prod, Matrix::identity(n), 1e-11, "trtri");
    }
  }
}

TEST(Trtri, RespectsGarbageInOppositeTriangle) {
  // trtri on packed storage (e.g. LU output) must not read the other
  // triangle.  Fill it with NaNs and check the result is still finite/right.
  util::Rng rng(14);
  const index_t n = 150;
  Matrix t(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) t(i, j) = rng.uniform(-1, 1);
    t(j, j) = 2.0 + rng.uniform();
    for (index_t i = j + 1; i < n; ++i) t(i, j) = std::numeric_limits<double>::quiet_NaN();
  }
  Matrix packed = t;
  MatrixView pv = packed;
  trtri(Uplo::Upper, Diag::NonUnit, pv);

  Matrix clean_t(n, n), clean_inv(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= j; ++i) {
      clean_t(i, j) = t(i, j);
      clean_inv(i, j) = packed(i, j);
    }
  Matrix prod = matmul(clean_t, clean_inv);
  expect_close(prod, Matrix::identity(n), 1e-11, "trtri packed");
}

TEST(Scal, ScalesEverything) {
  util::Rng rng(15);
  Matrix a = fsi::testing::random_matrix(7, 3, rng);
  Matrix ref = a;
  scal(-0.25, a);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(a(i, j), -0.25 * ref(i, j));
}

// ---- scalar-generic suites: the same kernels at both widths --------------
// The fp64 suites above pin the numerics; these pin the float instantiation
// of every Level-1/2/3 template the mixed-precision CLS/WRP path uses.

template <typename T>
class TypedBlas : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(TypedBlas, Scalars);

TYPED_TEST(TypedBlas, GemmMatchesNaiveAllTransposes) {
  using T = TypeParam;
  using fsi::testing::naive_gemm_t;
  using fsi::testing::random_matrix_t;
  const index_t m = 33, n = 17, k = 29;
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      util::Rng rng(42, static_cast<std::uint64_t>(ta == Trans::Yes) * 2 +
                            static_cast<std::uint64_t>(tb == Trans::Yes));
      BasicMatrix<T> a = (ta == Trans::No) ? random_matrix_t<T>(m, k, rng)
                                           : random_matrix_t<T>(k, m, rng);
      BasicMatrix<T> b = (tb == Trans::No) ? random_matrix_t<T>(k, n, rng)
                                           : random_matrix_t<T>(n, k, rng);
      BasicMatrix<T> c = random_matrix_t<T>(m, n, rng);
      BasicMatrix<T> c_ref = c;
      gemm(ta, tb, T(0.5), a, b, T(-1), c);
      naive_gemm_t<T>(ta, tb, T(0.5), a, b, T(-1), c_ref);
      fsi::testing::expect_close(c, c_ref, fsi::testing::Tol<T>::tight,
                                 "typed gemm");
    }
  }
}

TYPED_TEST(TypedBlas, GemmParallelPathMatchesNaive) {
  // Big enough to cross the packed parallel threshold at both widths.
  using T = TypeParam;
  const index_t m = 190, n = 170, k = 150;
  util::Rng rng(43);
  BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(m, k, rng);
  BasicMatrix<T> b = fsi::testing::random_matrix_t<T>(k, n, rng);
  BasicMatrix<T> c(m, n);
  BasicMatrix<T> c_ref(m, n);
  gemm(Trans::No, Trans::No, T(1), a, b, T(0), c);
  fsi::testing::naive_gemm_t<T>(Trans::No, Trans::No, T(1), a, b, T(0), c_ref);
  fsi::testing::expect_close(c, c_ref, fsi::testing::Tol<T>::tight,
                             "typed parallel gemm");
}

TYPED_TEST(TypedBlas, GemmPackedPathAroundKcBlockingAllTransposes) {
  // Packed path with k below KC = 256 (the 64-deep WRP panel shape), equal
  // to it, and past it at a non-multiple, for all four trans combinations.
  // The pack buffers are sized by min(k, KC) and not zero-filled; a
  // NaN-filled C under beta = 0 checks that every element is written.
  using T = TypeParam;
  using fsi::testing::naive_gemm_t;
  using fsi::testing::random_matrix_t;
  struct Shape {
    index_t m, n, k;
  };
  for (const Shape sh : {Shape{64, 640, 64}, Shape{40, 110, 256},
                         Shape{30, 70, 600}}) {
    ASSERT_GE(2.0 * sh.m * sh.n * sh.k,
              static_cast<double>(dense::kParallelFlopThreshold));
    for (Trans ta : {Trans::No, Trans::Yes}) {
      for (Trans tb : {Trans::No, Trans::Yes}) {
        for (const T beta : {T(0), T(0.5)}) {
          SCOPED_TRACE("k=" + std::to_string(sh.k) +
                       " ta=" + std::to_string(ta == Trans::Yes) +
                       " tb=" + std::to_string(tb == Trans::Yes) +
                       " beta=" + std::to_string(beta));
          util::Rng rng(44, static_cast<std::uint64_t>(sh.k));
          BasicMatrix<T> a = (ta == Trans::No)
                                 ? random_matrix_t<T>(sh.m, sh.k, rng)
                                 : random_matrix_t<T>(sh.k, sh.m, rng);
          BasicMatrix<T> b = (tb == Trans::No)
                                 ? random_matrix_t<T>(sh.k, sh.n, rng)
                                 : random_matrix_t<T>(sh.n, sh.k, rng);
          BasicMatrix<T> c = random_matrix_t<T>(sh.m, sh.n, rng);
          BasicMatrix<T> c_ref = c;
          if (beta == T(0)) {
            c.fill(std::numeric_limits<T>::quiet_NaN());
            c_ref.fill(T(0));
          }
          gemm(ta, tb, T(-1.5), a, b, beta, c);
          naive_gemm_t<T>(ta, tb, T(-1.5), a, b, beta, c_ref);
          fsi::testing::expect_close(c, c_ref, fsi::testing::Tol<T>::tight,
                                     "packed gemm around KC");
        }
      }
    }
  }
}

TYPED_TEST(TypedBlas, TrsmTrmmRoundTrip) {
  using T = TypeParam;
  const index_t n = 41, m = 13;
  for (Side side : {Side::Left, Side::Right}) {
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (Trans trans : {Trans::No, Trans::Yes}) {
        util::Rng rng(44, static_cast<std::uint64_t>(side == Side::Right) * 4 +
                              static_cast<std::uint64_t>(uplo == Uplo::Upper) *
                                  2 +
                              static_cast<std::uint64_t>(trans == Trans::Yes));
        BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(n, n, rng);
        for (index_t i = 0; i < n; ++i)
          a(i, i) = T(2) + static_cast<T>(rng.uniform());
        const index_t brows = (side == Side::Left) ? n : m;
        const index_t bcols = (side == Side::Left) ? m : n;
        BasicMatrix<T> b = fsi::testing::random_matrix_t<T>(brows, bcols, rng);
        BasicMatrix<T> x = b;
        trsm(side, uplo, trans, Diag::NonUnit, T(1), a, x);
        trmm(side, uplo, trans, Diag::NonUnit, T(1), a, x);
        fsi::testing::expect_close(x, b, fsi::testing::Tol<T>::tight,
                                   "typed trsm/trmm");
      }
    }
  }
}

TYPED_TEST(TypedBlas, GemvGerScalAgreeWithReference) {
  using T = TypeParam;
  const index_t m = 19, n = 11;
  util::Rng rng(45);
  BasicMatrix<T> a = fsi::testing::random_matrix_t<T>(m, n, rng);
  std::vector<T> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(m));
  for (auto& v : x) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  for (auto& v : y) v = static_cast<T>(rng.uniform(-1.0, 1.0));

  // gemv vs explicit loops.
  std::vector<T> y_ref = y;
  for (index_t i = 0; i < m; ++i) {
    T dot = T(0);
    for (index_t j = 0; j < n; ++j)
      dot += a(i, j) * x[static_cast<std::size_t>(j)];
    y_ref[static_cast<std::size_t>(i)] =
        T(2) * dot + y_ref[static_cast<std::size_t>(i)];
  }
  gemv(Trans::No, T(2), a, x.data(), T(1), y.data());
  for (index_t i = 0; i < m; ++i)
    EXPECT_NEAR(static_cast<double>(y[static_cast<std::size_t>(i)]),
                static_cast<double>(y_ref[static_cast<std::size_t>(i)]),
                fsi::testing::Tol<T>::tight);

  // ger then scal round trip: A' = s * (A + alpha x y^T).
  BasicMatrix<T> u = a;
  ger(T(-1.5), y.data(), x.data(), u);
  scal(T(-2), u);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(static_cast<double>(u(i, j)),
                  -2.0 * (static_cast<double>(a(i, j)) -
                          1.5 * static_cast<double>(y[static_cast<std::size_t>(
                                    i)]) *
                              static_cast<double>(x[static_cast<std::size_t>(
                                  j)])),
                  fsi::testing::Tol<T>::tight);
}

}  // namespace

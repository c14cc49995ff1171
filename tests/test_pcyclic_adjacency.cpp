/// Exhaustive tests of the adjacency relations (Eqs. 4-7): every move from
/// every (k, l) position — generic, diagonal, sub-diagonal, first/last
/// row/column and the four corners — is checked against a dense inverse.

#include <gtest/gtest.h>

#include "fsi/dense/norms.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/pcyclic/explicit_inverse.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using namespace fsi::pcyclic;
using fsi::testing::expect_close;

struct AdjacencyFixtureData {
  PCyclicMatrix m;
  Matrix gdense;
  BlockOps ops;

  AdjacencyFixtureData(index_t n, index_t l, std::uint64_t seed)
      : m(make(n, l, seed)), gdense(full_inverse_dense(m)), ops(m) {}

  static PCyclicMatrix make(index_t n, index_t l, std::uint64_t seed) {
    util::Rng rng(seed);
    return PCyclicMatrix::random(n, l, rng);
  }

  Matrix g(index_t k, index_t l) const {
    return dense_block(gdense, m.block_size(), k, l);
  }
};

class AdjacencyAllMoves
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(AdjacencyAllMoves, UpMatchesDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 201);
  for (index_t k = 0; k < l; ++k)
    for (index_t col = 0; col < l; ++col) {
      Matrix moved = f.ops.up(k, col, f.g(k, col));
      expect_close(moved, f.g(f.m.wrap(k - 1), col), 1e-9,
                   ("up from (" + std::to_string(k) + "," +
                    std::to_string(col) + ")").c_str());
    }
}

TEST_P(AdjacencyAllMoves, DownMatchesDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 202);
  for (index_t k = 0; k < l; ++k)
    for (index_t col = 0; col < l; ++col) {
      Matrix moved = f.ops.down(k, col, f.g(k, col));
      expect_close(moved, f.g(f.m.wrap(k + 1), col), 1e-9,
                   ("down from (" + std::to_string(k) + "," +
                    std::to_string(col) + ")").c_str());
    }
}

TEST_P(AdjacencyAllMoves, LeftMatchesDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 203);
  for (index_t k = 0; k < l; ++k)
    for (index_t col = 0; col < l; ++col) {
      Matrix moved = f.ops.left(k, col, f.g(k, col));
      expect_close(moved, f.g(k, f.m.wrap(col - 1)), 1e-9,
                   ("left from (" + std::to_string(k) + "," +
                    std::to_string(col) + ")").c_str());
    }
}

TEST_P(AdjacencyAllMoves, RightMatchesDenseInverseFromEveryPosition) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 204);
  for (index_t k = 0; k < l; ++k)
    for (index_t col = 0; col < l; ++col) {
      Matrix moved = f.ops.right(k, col, f.g(k, col));
      expect_close(moved, f.g(k, f.m.wrap(col + 1)), 1e-9,
                   ("right from (" + std::to_string(k) + "," +
                    std::to_string(col) + ")").c_str());
    }
}

/// The panels a wrap walk moves: every block row (up/down) and block column
/// (left/right) as a whole — which holds the diagonal block and both wrap
/// lines 0 and L-1 — and a reversed every-other-index subset, which holds
/// the diagonal block only on some lines.
std::vector<std::vector<index_t>> panel_index_sets(index_t l) {
  std::vector<index_t> all, alternate;
  for (index_t i = 0; i < l; ++i) all.push_back(i);
  for (index_t i = l - 1; i >= 0; i -= 2) alternate.push_back(i);
  return {all, alternate};
}

TEST_P(AdjacencyAllMoves, PanelMovesMatchDenseInverseOnEveryLine) {
  const auto [n, l] = GetParam();
  AdjacencyFixtureData f(n, l, 209);
  for (const std::vector<index_t>& lines : panel_index_sets(l)) {
    const auto width = static_cast<index_t>(lines.size()) * n;
    // G(rows(j), cols(j)) side by side (row panel) or stacked (column panel).
    auto row_panel = [&](index_t k) {
      Matrix p(n, width);
      for (std::size_t j = 0; j < lines.size(); ++j)
        dense::copy(f.g(k, lines[j]),
                    p.block(0, static_cast<index_t>(j) * n, n, n));
      return p;
    };
    auto col_panel = [&](index_t col) {
      Matrix p(width, n);
      for (std::size_t j = 0; j < lines.size(); ++j)
        dense::copy(f.g(lines[j], col),
                    p.block(static_cast<index_t>(j) * n, 0, n, n));
      return p;
    };
    for (index_t k = 0; k < l; ++k) {
      SCOPED_TRACE("line " + std::to_string(k) + ", " +
                   std::to_string(lines.size()) + " blocks");
      Matrix out(n, width);
      f.ops.up(k, lines, row_panel(k), out);
      expect_close(out, row_panel(f.m.wrap(k - 1)), 1e-9, "panel up");
      f.ops.down(k, lines, row_panel(k), out);
      expect_close(out, row_panel(f.m.wrap(k + 1)), 1e-9, "panel down");
      Matrix out_t(width, n);
      f.ops.left(lines, k, col_panel(k), out_t);
      expect_close(out_t, col_panel(f.m.wrap(k - 1)), 1e-9, "panel left");
      f.ops.right(lines, k, col_panel(k), out_t);
      expect_close(out_t, col_panel(f.m.wrap(k + 1)), 1e-9, "panel right");
    }
  }
}

TEST(Adjacency, PanelMovesRejectMismatchedPanelWidth) {
  AdjacencyFixtureData f(3, 4, 210);
  Matrix g(3, 6), out(3, 6);  // two blocks wide, three indices
  EXPECT_THROW(f.ops.up(1, {0, 1, 2}, g, out), util::CheckError);
  Matrix gt(6, 3), out_t(6, 3);
  EXPECT_THROW(f.ops.right({0, 1, 2}, 1, gt, out_t), util::CheckError);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AdjacencyAllMoves,
    ::testing::Values(std::make_pair(index_t{3}, index_t{2}),
                      std::make_pair(index_t{4}, index_t{3}),
                      std::make_pair(index_t{3}, index_t{8}),
                      std::make_pair(index_t{7}, index_t{5})),
    [](const auto& info) {
      return "N" + std::to_string(info.param.first) + "L" +
             std::to_string(info.param.second);
    });

TEST(Adjacency, RoundTripsAreConsistent) {
  // up then down (and left then right) must return the original block.
  AdjacencyFixtureData f(4, 6, 205);
  for (index_t k : {index_t{0}, index_t{2}, index_t{5}}) {
    for (index_t col : {index_t{0}, index_t{3}, index_t{5}}) {
      Matrix g0 = f.g(k, col);
      Matrix up = f.ops.up(k, col, g0);
      Matrix back = f.ops.down(f.m.wrap(k - 1), col, up);
      expect_close(back, g0, 1e-8, "up/down round trip");

      Matrix left = f.ops.left(k, col, g0);
      Matrix back2 = f.ops.right(k, f.m.wrap(col - 1), left);
      expect_close(back2, g0, 1e-8, "left/right round trip");
    }
  }
}

TEST(Adjacency, WholeColumnFromSingleSeed) {
  // Walking up L-1 times from one seed must reconstruct the whole column —
  // the essence of the paper's Alg. 2.
  AdjacencyFixtureData f(5, 7, 206);
  const index_t col = 4, seed_row = 2;
  Matrix cur = f.g(seed_row, col);
  index_t k = seed_row;
  for (index_t step = 0; step < f.m.num_blocks() - 1; ++step) {
    cur = f.ops.up(k, col, cur);
    k = f.m.wrap(k - 1);
    expect_close(cur, f.g(k, col), 1e-8, "column walk");
  }
}

TEST(Adjacency, WholeRowFromSingleSeed) {
  AdjacencyFixtureData f(5, 7, 207);
  const index_t row = 6, seed_col = 0;
  Matrix cur = f.g(row, seed_col);
  index_t col = seed_col;
  for (index_t step = 0; step < f.m.num_blocks() - 1; ++step) {
    cur = f.ops.right(row, col, cur);
    col = f.m.wrap(col + 1);
    expect_close(cur, f.g(row, col), 1e-8, "row walk");
  }
}

TEST(Adjacency, InverseAccessorMatchesBlocks) {
  AdjacencyFixtureData f(4, 3, 208);
  for (index_t i = 0; i < 3; ++i) {
    Matrix prod = dense::matmul(f.m.b(i), f.ops.inverse(i));
    expect_close(prod, Matrix::identity(4), 1e-10, "B B^-1 = I");
  }
  EXPECT_THROW(f.ops.inverse(3), util::CheckError);
}

}  // namespace

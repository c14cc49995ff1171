/// Tests for the Edison node memory-feasibility model behind the Fig. 9
/// configuration table.

#include <gtest/gtest.h>

#include "fsi/mpi/edison_model.hpp"

namespace {

using namespace fsi;

TEST(EdisonModel, MatchesPaperMemoryNumbers) {
  // Paper: selected inversion for (N, L, c) = (576, 100, 10) needs ~2.65 GB.
  const std::size_t bytes =
      mpi::fsi_rank_bytes(576, 100, 10, pcyclic::Pattern::Columns);
  const double gb = double(bytes) / (1024.0 * 1024 * 1024);
  EXPECT_GT(gb, 2.6);
  EXPECT_LT(gb, 3.6);  // selected inversion plus working set

  // Paper: 12 ranks/socket (24/node) at N=576 exceed the node memory; the
  // hybrid configs (12 ranks x 2 threads, ...) fit.
  EXPECT_FALSE(mpi::config_fits(24, bytes));
  EXPECT_TRUE(mpi::config_fits(12, bytes));

  // N = 400 fits even in pure-MPI mode (the paper's fastest config).
  const std::size_t bytes400 =
      mpi::fsi_rank_bytes(400, 100, 10, pcyclic::Pattern::Columns);
  EXPECT_TRUE(mpi::config_fits(24, bytes400));
}

TEST(EdisonModel, DiagonalPatternIsTiny) {
  const std::size_t diag =
      mpi::fsi_rank_bytes(576, 100, 10, pcyclic::Pattern::Diagonal);
  const std::size_t cols =
      mpi::fsi_rank_bytes(576, 100, 10, pcyclic::Pattern::Columns);
  EXPECT_LT(diag, cols / 2);
}

}  // namespace

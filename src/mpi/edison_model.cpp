#include "fsi/mpi/edison_model.hpp"

namespace fsi::mpi {

std::size_t fsi_rank_bytes(dense::index_t n, dense::index_t l, dense::index_t c,
                           pcyclic::Pattern pattern) {
  const std::size_t n2 = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  const std::size_t b = static_cast<std::size_t>(l / c);
  const std::size_t lblocks = static_cast<std::size_t>(l);

  std::size_t selected_blocks = 0;
  switch (pattern) {
    case pcyclic::Pattern::Diagonal:
    case pcyclic::Pattern::SubDiagonal:
      selected_blocks = b;
      break;
    case pcyclic::Pattern::Columns:
    case pcyclic::Pattern::Rows:
      selected_blocks = b * lblocks;
      break;
    case pcyclic::Pattern::AllDiagonals:
      selected_blocks = lblocks;
      break;
  }

  const std::size_t b_blocks = lblocks * n2;        // input B_1..B_L
  const std::size_t inv_blocks = lblocks * n2;      // wrapping-move B^-1
  const std::size_t reduced = b * n2;               // clustered matrix
  const std::size_t gtilde = (b * b) * n2;          // dense reduced inverse
  const std::size_t selected = selected_blocks * n2;
  return (b_blocks + inv_blocks + reduced + gtilde + selected) * sizeof(double);
}

bool config_fits(int ranks_per_node, std::size_t bytes_per_rank,
                 const EdisonNode& node) {
  const double need_gb = static_cast<double>(ranks_per_node) *
                         static_cast<double>(bytes_per_rank) / (1024.0 * 1024.0 * 1024.0);
  return need_gb <= node.usable_gb();
}

}  // namespace fsi::mpi

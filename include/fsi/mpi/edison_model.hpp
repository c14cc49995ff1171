#pragma once
/// \file edison_model.hpp
/// \brief Analytic memory-feasibility model of a NERSC Edison compute node.
///
/// The paper's Fig. 9 shows that pure-MPI execution (24 ranks per node) is
/// the fastest configuration *when it fits in memory*, but for N >= 576 the
/// per-rank footprint of a selected inversion exceeds the node's budget and
/// the OOM killer terminates the job — hybrid MPI/OpenMP is then required.
/// We cannot rent 100 Edison nodes, so this model reproduces the
/// feasibility boundary analytically from the measured per-matrix footprint
/// (paper: "When N = 576, the memory requirement for the selected inversion
/// is approximately 2.65 GB; 12 MPI processes per socket require 31.8 GB
/// that exceeds the available memory").

#include <cstddef>

#include "fsi/dense/matrix.hpp"
#include "fsi/pcyclic/patterns.hpp"

namespace fsi::mpi {

/// Hardware description of one Edison node (paper Sec. III-A / V).
struct EdisonNode {
  int sockets = 2;
  int cores_per_socket = 12;
  double memory_gb = 64.0;
  /// OS / Lustre / MPI buffers etc.: the paper quotes ~2.5 GB usable per
  /// core out of 64/24 = 2.67 GB, i.e. ~6.7% reserved.
  double reserved_gb = 4.0;

  int cores() const { return sockets * cores_per_socket; }
  double usable_gb() const { return memory_gb - reserved_gb; }
};

/// Estimated bytes one MPI rank needs to run FSI on one Hubbard matrix with
/// the given shape: B blocks (L N^2), the reduced matrix (b N^2), the dense
/// reduced inverse ((bN)^2), the explicit B^-1 for the wrapping moves (L N^2)
/// and the selected inversion itself (the dominant term: bL N^2 for block
/// columns — 2.65 GB at (N, L, c) = (576, 100, 10), matching the paper).
std::size_t fsi_rank_bytes(dense::index_t n, dense::index_t l, dense::index_t c,
                           pcyclic::Pattern pattern);

/// Can \p ranks_per_node ranks of \p bytes_per_rank each run on \p node?
bool config_fits(int ranks_per_node, std::size_t bytes_per_rank,
                 const EdisonNode& node = EdisonNode{});

}  // namespace fsi::mpi

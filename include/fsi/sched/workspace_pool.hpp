#pragma once
/// \file workspace_pool.hpp
/// \brief Recycling pool for the dense workspaces of batched FSI calls.
///
/// Every FSI invocation allocates the same family of dense buffers: N x N
/// cluster products and adjacency-move outputs, 2N x N BSOFI panels, and the
/// bN x bN reduced inverse.  In the batched Alg.-3 workload those shapes
/// repeat thousands of times, so the pool keeps released storage on
/// size-keyed free lists and hands it back on the next acquire() — after a
/// one-batch warmup, steady-state batches run without touching the
/// allocator.  Buffers are fungible per element count (a 4x8 release can
/// serve a 2x16 acquire), which keeps the keying trivial and the hit rate
/// high across patterns.
///
/// The pool is type-aware: fp64 and fp32 buffers live on separate shard
/// sets (an fp32 cluster product must never be served a half-sized view of
/// an fp64 buffer or vice versa), so the mixed-precision CLS/WRP stages
/// recycle their fp32 workspaces with the same steady-state behaviour as
/// the default path.  The shared byte cap covers both scalar types.
///
/// Concurrency: free lists are sharded by size key, each shard behind its
/// own mutex, so concurrent mini-MPI ranks and OpenMP threads acquire and
/// recycle without a global bottleneck.  Hits and misses are mirrored into
/// obs::metrics (Counter::PoolHits / Counter::PoolMisses) for telemetry.
///
/// Environment toggles (read through obs/env.hpp, documented in
/// docs/parallelism.md):
///   FSI_SCHED_POOL        — 0/false/off disables pooling (acquire() then
///                           plainly allocates and recycle() frees)
///   FSI_SCHED_POOL_MAX_MB — cap on cached bytes; recycles beyond the cap
///                           drop the buffer instead of caching it

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "fsi/dense/matrix.hpp"

namespace fsi::sched {

using dense::index_t;

class WorkspacePool {
 public:
  /// \p max_bytes caps the cached storage; recycles beyond it are dropped.
  WorkspacePool(bool enabled, std::size_t max_bytes);

  /// The process-wide pool, configured from FSI_SCHED_POOL /
  /// FSI_SCHED_POOL_MAX_MB on first use.  Intentionally leaked so that
  /// recycling from static-destruction contexts stays safe.
  static WorkspacePool& global();

  /// A rows x cols zero-initialised matrix, backed by recycled storage when
  /// a buffer of the same element count is cached.
  dense::Matrix acquire(index_t rows, index_t cols);
  /// fp32 twin of acquire(), served from the fp32 shard set.
  dense::MatrixF acquire_f(index_t rows, index_t cols);

  /// Deep copy of \p src into pool-backed storage (compacts the leading
  /// dimension, like dense::Matrix::copy_of).
  dense::Matrix acquire_copy(dense::ConstMatrixView src);
  dense::MatrixF acquire_copy_f(dense::ConstMatrixViewF src);

  /// Return a matrix's storage to the pool.  Empty matrices and recycles
  /// beyond the byte cap are dropped; disabled pools free immediately.
  void recycle(dense::Matrix&& m);
  void recycle(dense::MatrixF&& m);

  bool enabled() const { return enabled_; }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// hits / (hits + misses), or 0 when nothing was acquired.
  double hit_rate() const;

  std::size_t cached_bytes() const;
  std::size_t cached_buffers() const;

  /// Drop every cached buffer (counters are kept).
  void clear();

 private:
  static constexpr std::size_t kShards = 8;
  template <typename T>
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::size_t, std::deque<std::vector<T>>> free;
    std::size_t bytes = 0;
  };
  template <typename T>
  Shard<T>& shard_for(Shard<T> (&shards)[kShards], std::size_t count) {
    // Fibonacci-style mixing: raw element counts cluster on multiples of 8
    // (N^2 for even N), which would funnel everything into one shard.
    return shards[(count * 11400714819323198485ull) >> 61];
  }

  template <typename T>
  dense::BasicMatrix<T> acquire_impl(Shard<T> (&shards)[kShards], index_t rows,
                                     index_t cols);
  template <typename T>
  void recycle_impl(Shard<T> (&shards)[kShards], dense::BasicMatrix<T>&& m);

  bool enabled_;
  std::size_t max_bytes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  Shard<double> shards_[kShards];
  Shard<float> shards_f_[kShards];
};

/// Conveniences on the global pool — what the FSI stages call.
inline dense::Matrix acquire(index_t rows, index_t cols) {
  return WorkspacePool::global().acquire(rows, cols);
}
inline dense::Matrix acquire_copy(dense::ConstMatrixView src) {
  return WorkspacePool::global().acquire_copy(src);
}
inline void recycle(dense::Matrix&& m) {
  WorkspacePool::global().recycle(std::move(m));
}
inline dense::MatrixF acquire_f(index_t rows, index_t cols) {
  return WorkspacePool::global().acquire_f(rows, cols);
}
inline dense::MatrixF acquire_copy_f(dense::ConstMatrixViewF src) {
  return WorkspacePool::global().acquire_copy_f(src);
}
inline void recycle(dense::MatrixF&& m) {
  WorkspacePool::global().recycle(std::move(m));
}
/// acquire() or acquire_f() by scalar, for scalar-generic callers.
template <typename T>
inline dense::BasicMatrix<T> acquire_as(index_t rows, index_t cols) {
  if constexpr (std::is_same_v<T, float>)
    return acquire_f(rows, cols);
  else
    return acquire(rows, cols);
}

}  // namespace fsi::sched

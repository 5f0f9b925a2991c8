// Common kNN result types and the MergeAndPrune neighbor-reuse primitive.
//
// VoLUT (Eq. 2) observes that for an interpolated point p' generated between
// points p and q,
//     N_k(p') ~= MergeAndPrune(N_k(p), N_k(q)),
// i.e. the k nearest neighbors of the midpoint can be recovered from the
// already-computed neighbor lists of its parents without a fresh tree search.
// merge_and_prune implements exactly that: union the candidate lists,
// re-measure distances to p', and keep the best k.
//
// Batch queries traffic in NeighborBuffer: one flat, k-strided Neighbor arena
// plus per-query counts. One allocation covers an entire batch (instead of
// one vector per query point, per frame, per session), the layout is what a
// GPU/SIMD backend would consume directly, and a buffer kept in a scratch
// struct makes steady-state frames allocation-free — resize() only touches
// the heap when a frame needs more capacity than any frame before it.
#pragma once

#ifndef VOLUT_OBS_ENABLED
#define VOLUT_OBS_ENABLED 1
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/core/vec3.h"

namespace volut {

class KdTree;
class ThreadPool;

/// One neighbor: index into the source cloud plus squared distance to the
/// query point.
struct Neighbor {
  std::size_t index = 0;
  float dist2 = 0.0f;

  bool operator<(const Neighbor& o) const {
    return dist2 < o.dist2 || (dist2 == o.dist2 && index < o.index);
  }
};

/// Flat neighbor-list arena for a batch of queries: `stride` slots per query
/// in one contiguous array, with a per-query valid count (truncated
/// neighborhoods — small clouds, k = 0 — simply leave trailing slots
/// unused). operator[] yields the valid prefix, so consumers read it exactly
/// like the former vector-of-vectors.
class NeighborBuffer {
 public:
  NeighborBuffer() = default;

  /// Shapes the buffer for `queries` lists of up to `stride` neighbors each
  /// and zeroes all counts. Reuses existing capacity: calling this every
  /// frame with steady sizes performs no heap allocation.
  void resize(std::size_t queries, std::size_t stride) {
    queries_ = queries;
    stride_ = stride;
    arena_.resize(queries * stride);
    counts_.assign(queries, 0);
  }

  /// Number of queries (not neighbors).
  std::size_t size() const { return queries_; }
  bool empty() const { return queries_ == 0; }
  /// Slots reserved per query.
  std::size_t stride() const { return stride_; }

  /// Valid neighbors recorded for query `i`.
  std::size_t count(std::size_t i) const { return counts_[i]; }
  void set_count(std::size_t i, std::size_t n) {
    counts_[i] = static_cast<std::uint32_t>(n);
  }

  /// The valid (sorted) neighbor list of query `i`.
  std::span<const Neighbor> operator[](std::size_t i) const {
    return {arena_.data() + i * stride_, counts_[i]};
  }

  /// The full `stride`-sized slot of query `i`, for producers to fill
  /// (typically as NeighborHeap backing storage).
  std::span<Neighbor> slot(std::size_t i) {
    return {arena_.data() + i * stride_, stride_};
  }

  /// Bytes currently backing the arena (capacity, not size) — feeds the
  /// memory-accounting benches.
  std::uint64_t arena_capacity_bytes() const {
    return std::uint64_t(arena_.capacity()) * sizeof(Neighbor) +
           std::uint64_t(counts_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  std::size_t queries_ = 0;
  std::size_t stride_ = 0;
  std::vector<Neighbor> arena_;
  std::vector<std::uint32_t> counts_;
};

/// Bounded collector of the k best neighbors seen so far, living entirely in
/// caller-provided storage (a NeighborBuffer slot, a stack array, a vector)
/// — pushing never allocates. Used by both the kd-tree and octree searches.
///
/// Candidates are kept under the full (distance, index) order — the same
/// total order the sorted output uses — so equidistant ties resolve toward
/// lower indices no matter the traversal order: the kept set is exactly the
/// k smallest under Neighbor::operator<, the contract merge_and_prune's
/// tie-breaking relies on. (The name is historical: k is small on every hot
/// path, so the implementation is a sorted insertion list — rejections cost
/// one compare against the back, worst_dist2() is a load, and the collected
/// prefix is sorted at all times, making sort_ascending() free.)
class NeighborHeap {
 public:
  explicit NeighborHeap(std::span<Neighbor> storage) : storage_(storage) {}

  std::size_t capacity() const { return storage_.size(); }
  std::size_t size() const { return size_; }
  bool full() const { return size_ == storage_.size(); }

  /// Discards collected neighbors so the same storage can back a new search.
  void clear() { size_ = 0; }

  /// Largest accepted distance so far; +inf until the heap is full.
  float worst_dist2() const {
    return size_ > 0 && full() ? storage_[size_ - 1].dist2
                               : std::numeric_limits<float>::infinity();
  }

  void push(std::size_t index, float dist2) {
    const Neighbor cand{index, dist2};
    std::size_t pos;
    if (!full()) {
      pos = size_++;
    } else if (size_ > 0 && cand < storage_[size_ - 1]) {
      pos = size_ - 1;  // evict the current worst
    } else {
      return;
    }
#if VOLUT_OBS_ENABLED
    ++pushes_;
#endif
    while (pos > 0 && cand < storage_[pos - 1]) {
      storage_[pos] = storage_[pos - 1];
      --pos;
    }
    storage_[pos] = cand;
  }

  /// Accepted insertions since construction (rejected candidates excluded);
  /// always 0 under VOLUT_OBS=OFF. Searches flush the delta into the
  /// "spatial/heap_pushes" counter.
  std::uint64_t pushes() const {
#if VOLUT_OBS_ENABLED
    return pushes_;
#else
    return 0;
#endif
  }

  /// Returns how many neighbors were collected; the storage prefix holds
  /// them sorted by increasing (distance, index) — an invariant of push, so
  /// this is O(1).
  std::size_t sort_ascending() { return size_; }

 private:
  std::span<Neighbor> storage_;
  std::size_t size_ = 0;
#if VOLUT_OBS_ENABLED
  std::uint64_t pushes_ = 0;
#endif
};

/// Implements Eq. 2 without allocating: merges two candidate neighbor lists,
/// recomputes distances to `query` against `positions`, deduplicates indices
/// and writes the min(k, out.size()) closest into `out`, sorted by increasing
/// distance. Returns the number written.
std::size_t merge_and_prune_into(std::span<const Neighbor> a,
                                 std::span<const Neighbor> b,
                                 const Vec3f& query,
                                 std::span<const Vec3f> positions,
                                 std::size_t k, std::span<Neighbor> out);

/// Runs one k-nearest-neighbor query per entry of `queries` against `tree`
/// into `out` (reshaped to queries.size() x k), split into chunked batches on
/// `pool` (serial when `pool` is null or has a single worker). Each query
/// writes only its own arena slot, so the output is bit-identical regardless
/// of worker count. With `exclude_self` true, query i is assumed to be point
/// i of the indexed cloud and is excluded during the tree walk.
void batch_knn_kdtree(const KdTree& tree, std::span<const Vec3f> queries,
                      std::size_t k, NeighborBuffer& out,
                      ThreadPool* pool = nullptr, bool exclude_self = false);

/// Convenience overload allocating a fresh buffer.
NeighborBuffer batch_knn_kdtree(const KdTree& tree,
                                std::span<const Vec3f> queries, std::size_t k,
                                ThreadPool* pool = nullptr,
                                bool exclude_self = false);

}  // namespace volut

// Two-layer octree for fast, parallel kNN (paper §4.1, "Hierarchical kNN
// Computation").
//
// The paper's structure divides the cloud into 8 major regions, each further
// split into 8 sub-regions — i.e. a 4x4x4 = 64-cell decomposition of the
// bounding box. Leaf cells hold point subsets whose neighbors are "highly
// likely self-contained", so most kNN queries resolve within one cell; when
// the current worst candidate distance reaches past the cell boundary, the
// search spills into neighboring cells in order of box distance (exactness
// is preserved — the pruning is conservative).
//
// The paper's CUDA client brute-force-scans cells with thousands of GPU
// threads; on the CPU substrate each leaf cell instead carries a local
// kd-tree over a contiguous slice of a counting-sorted flat array, so a
// query costs a search over ~1/64 of the cloud plus rare spills that share
// one result heap (the worst-distance bound prunes across cells). The cell
// decomposition is also the parallelism unit: batch_knn processes cells
// independently on a thread pool, mirroring the CUDA kernels' cell-parallel
// decomposition.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/aabb.h"
#include "src/core/vec3.h"
#include "src/platform/thread_pool.h"
#include "src/spatial/kdtree.h"
#include "src/spatial/knn.h"

namespace volut {

class TwoLayerOctree {
 public:
  /// Cells per axis; 4 per axis = two octree layers (2 x 2 splits).
  static constexpr int kCellsPerAxis = 4;
  static constexpr int kNumCells =
      kCellsPerAxis * kCellsPerAxis * kCellsPerAxis;

  TwoLayerOctree() = default;
  explicit TwoLayerOctree(std::span<const Vec3f> positions,
                          ThreadPool* pool = nullptr) {
    build(positions, pool);
  }

  /// Builds the index; per-cell kd-trees are constructed in parallel when a
  /// pool is given (mirroring the CUDA client's parallel build).
  void build(std::span<const Vec3f> positions, ThreadPool* pool = nullptr);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Exact k nearest neighbors of `query`, sorted by increasing distance.
  std::vector<Neighbor> knn(const Vec3f& query, std::size_t k) const;

  /// kNN for every point of the indexed cloud itself into `out` (reshaped to
  /// size() x min(k, size()-1)), computed cell-parallel on `pool` (or
  /// serially when pool == nullptr). out[i] are the k neighbors of point i,
  /// *excluding* point i itself; each query fills only its own arena slot,
  /// so the result is bit-identical at any worker count and a reused buffer
  /// makes the batch allocation-free.
  ///
  /// With `exact` false the search stays within each point's own cell (the
  /// paper's "neighbour points are highly likely self-contained" leaf
  /// property): each cell answers all its points with one
  /// KdTree::self_knn_into pass, and a cell holding no more than k points
  /// spills each of its queries to the exact search. Near cell walls a
  /// reported neighbor may be slightly farther than the true k-th neighbor;
  /// the dilated-interpolation stage tolerates this by construction
  /// (partners are randomly drawn from the dilated neighborhood anyway),
  /// and it removes all spill searches from the hot path.
  void batch_knn(std::size_t k, NeighborBuffer& out, ThreadPool* pool,
                 bool exact = true) const;

  /// Convenience overload allocating a fresh buffer.
  NeighborBuffer batch_knn(std::size_t k, ThreadPool* pool,
                           bool exact = true) const;

  /// Cell id containing `p` (clamped to the grid).
  int cell_of(const Vec3f& p) const;

  /// Number of points stored in the given cell.
  std::size_t cell_size(int cell) const {
    const Cell& c = cells_[static_cast<std::size_t>(cell)];
    return c.end - c.begin;
  }

 private:
  struct Cell {
    std::uint32_t begin = 0;  // range into flat_points_ / flat_to_global_
    std::uint32_t end = 0;
    KdTree tree;              // over flat_points_[begin, end)
  };

  /// Cell trees report global indices (KdTree report_indices remap), so the
  /// shared heap collects — and tie-breaks on — final indices; `exclude`
  /// is a global index too.
  void knn_into(const Vec3f& query, NeighborHeap& heap,
                std::uint32_t exclude_global) const;
  AABB cell_bounds(int cx, int cy, int cz) const;

  std::size_t size_ = 0;
  AABB bounds_;
  Vec3f cell_extent_{};
  std::vector<Vec3f> flat_points_;           // counting-sorted by cell
  std::vector<std::uint32_t> flat_to_global_;
  std::vector<int> cell_id_scratch_;         // build-time scratch, kept so
                                             // rebuilds don't allocate
  std::array<Cell, kNumCells> cells_;
};

}  // namespace volut

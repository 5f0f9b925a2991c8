// kd-tree over point positions: exact kNN queries.
//
// This is the reference spatial index (the "vanilla kNN" path in the paper's
// interpolation baseline) and is also used by the Chamfer-distance metric and
// colorization. Median-split construction over an index array; the kNN hot
// path is an explicit-stack traversal (no recursion) whose leaf scans run
// through the runtime-dispatched SIMD kernels of knn_simd.h: every leaf
// keeps an SoA mirror of its points (x[]/y[]/z[] contiguous, padded to the
// vector width) built alongside the nodes.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "src/core/vec3.h"
#include "src/spatial/knn.h"

namespace volut {

class KdTree {
 public:
  /// Sentinel index reported by nearest() on an empty tree.
  static constexpr std::size_t kNoNeighbor =
      std::numeric_limits<std::size_t>::max();

  KdTree() = default;

  /// Builds the tree over `positions`. The span must outlive the tree.
  explicit KdTree(std::span<const Vec3f> positions) { build(positions); }

  /// Builds the tree over `positions`; both spans must outlive the tree.
  /// When `report_indices` is non-empty (one entry per position), kNN and
  /// nearest() report report_indices[i] instead of the position index i —
  /// the two-layer octree maps its cell-local slices straight to global
  /// indices this way, so heap tie-breaking operates on the indices the
  /// caller actually compares.
  void build(std::span<const Vec3f> positions,
             std::span<const std::uint32_t> report_indices = {});

  bool empty() const { return nodes_.empty(); }
  std::size_t size() const { return index_.size(); }

  /// k nearest neighbors of `query`, sorted by increasing distance.
  /// Returns fewer than k when the cloud is smaller than k.
  std::vector<Neighbor> knn(const Vec3f& query, std::size_t k) const;

  /// Allocation-free variant: pushes neighbors into the caller's heap, with
  /// `index_offset` added to every reported index and `exclude` (post-offset)
  /// skipped. Lets composite indexes (the two-layer octree) share one heap
  /// across several trees so the worst-distance bound prunes globally.
  /// No-op on an empty tree.
  void knn_into(const Vec3f& query, NeighborHeap& heap,
                std::uint32_t index_offset = 0,
                std::uint32_t exclude =
                    std::numeric_limits<std::uint32_t>::max()) const;

  /// kNN of every point the tree indexes, excluding the point itself, with
  /// k = out.stride(): the neighbors of the point reported as r land in
  /// out.slot(r), with out.count(r) set — the list knn_into with
  /// `exclude = r` gives. `out` must already be shaped to cover every
  /// reported index. Queries run in leaf (SoA) order through the same
  /// traversal as knn_into. At the AVX2 level with k <= 8 the best k stay
  /// in registers (Top8); other levels and wider k collect into a
  /// NeighborHeap. Counters are flushed once per call.
  void self_knn_into(NeighborBuffer& out) const;

  /// Index + squared distance of the single nearest neighbor, or
  /// {kNoNeighbor, +inf} when the tree is empty.
  Neighbor nearest(const Vec3f& query) const;

 private:
  struct Node {
    float split = 0.0f;          // split coordinate value
    std::int32_t axis = -1;      // -1 marks a leaf
    std::uint32_t left = 0;      // child node ids (internal nodes)
    std::uint32_t right = 0;
    std::uint32_t begin = 0;     // leaf range into index_
    std::uint32_t end = 0;
    std::uint32_t soa_begin = 0; // leaf range into the padded SoA arrays
  };

  std::uint32_t build_node(std::uint32_t begin, std::uint32_t end, int depth);
  /// The one kNN traversal, shared by knn_into and self_knn_into and
  /// generic over their candidate collectors: calls `scan_leaf(node)` on
  /// each leaf that can still contribute, nearest first, and prunes on the
  /// float it returns (the collector's k-th best distance, +inf until k
  /// are held). Defined in kdtree.cc, its only user.
  template <typename ScanLeaf>
  void walk(const Vec3f& query, ScanLeaf&& scan_leaf) const;

  /// 32 points per leaf = 4 AVX2 blocks: larger leaves trade tree descent
  /// for vectorized brute force, the same trade the paper's GPU cell scan
  /// makes. Measured best on BM_BatchKnnSimd (16 and 64 are both slower, at
  /// every dispatch level including scalar).
  static constexpr std::uint32_t kLeafSize = 32;
  /// Traversal stack bound: the median split halves every range, so depth is
  /// <= ceil(log2(size)) + 1 < 40 for any cloud addressable by uint32
  /// indices. 64 leaves generous slack.
  static constexpr int kMaxDepth = 64;

  std::span<const Vec3f> points_;
  std::span<const std::uint32_t> report_indices_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> index_;
  // Per-leaf SoA mirror: each leaf owns [soa_begin, soa_begin + padded(n))
  // with coordinates split by axis and the point index alongside. Padding
  // lanes hold +inf coordinates (measured distance +inf, never kept once the
  // heap is full) and are masked out of reporting by the valid count.
  std::vector<float> soa_x_;
  std::vector<float> soa_y_;
  std::vector<float> soa_z_;
  std::vector<std::uint32_t> soa_idx_;
  std::uint32_t root_ = 0;
};

}  // namespace volut

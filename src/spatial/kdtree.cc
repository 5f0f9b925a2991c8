#include "src/spatial/kdtree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/obs/metrics.h"
#include "src/spatial/knn_simd.h"

namespace volut {

namespace {

/// Search-effort tallies, kept in locals by each search and flushed as one
/// relaxed add per counter (knn_into: per query; self_knn_into: per call),
/// so the leaf loop stays atomic-free. Leaf scans index by the SIMD level
/// active at flush time — tests flip levels in-process via
/// simd_force_level, so the level must never be cached.
struct KnnTally {
  std::uint64_t queries = 0;
  std::uint64_t leaf_scans = 0;
  std::uint64_t points_scanned = 0;
  std::uint64_t heap_pushes = 0;

  void flush() const {
#if VOLUT_OBS_ENABLED
    struct Counters {
      Counter* queries;
      Counter* leaf_scans[2];  // indexed by SimdLevel
      Counter* points_scanned;
      Counter* heap_pushes;
    };
    static const Counters counters = [] {
      MetricsRegistry& reg = MetricsRegistry::global();
      return Counters{&reg.counter("spatial/knn_queries"),
                      {&reg.counter("spatial/leaf_scans/scalar"),
                       &reg.counter("spatial/leaf_scans/avx2")},
                      &reg.counter("spatial/points_scanned"),
                      &reg.counter("spatial/heap_pushes")};
    }();
    counters.queries->add(queries);
    counters.leaf_scans[static_cast<int>(simd_active_level())]->add(
        leaf_scans);
    counters.points_scanned->add(points_scanned);
    counters.heap_pushes->add(heap_pushes);
#endif
  }
};

constexpr std::uint32_t kNoExclude = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void KdTree::build(std::span<const Vec3f> positions,
                   std::span<const std::uint32_t> report_indices) {
  // Rebuild in place: clear + push_back within retained capacity, so a tree
  // held in a per-frame scratch reaches an allocation-free steady state.
  points_ = positions;
  report_indices_ = report_indices;
  nodes_.clear();
  soa_x_.clear();
  soa_y_.clear();
  soa_z_.clear();
  soa_idx_.clear();
  index_.resize(positions.size());
  std::iota(index_.begin(), index_.end(), 0u);
  if (!index_.empty()) {
    nodes_.reserve(2 * index_.size() / kLeafSize + 2);
    // Worst-case SoA footprint: every point once, plus one pad block per
    // leaf — and the median split can produce leaves as small as
    // kLeafSize / 2, so bound the leaf count by that.
    const std::size_t soa_cap =
        index_.size() + kSoaLeafPad * (index_.size() / (kLeafSize / 2) + 2);
    soa_x_.reserve(soa_cap);
    soa_y_.reserve(soa_cap);
    soa_z_.reserve(soa_cap);
    soa_idx_.reserve(soa_cap);
    root_ = build_node(0, static_cast<std::uint32_t>(index_.size()), 0);
  }
}

std::uint32_t KdTree::build_node(std::uint32_t begin, std::uint32_t end,
                                 int depth) {
  const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (end - begin <= kLeafSize) {
    nodes_[id].axis = -1;
    nodes_[id].begin = begin;
    nodes_[id].end = end;
    // SoA mirror of the leaf, padded to the vector width so kernels read
    // whole vectors. Padding lanes measure +inf distance and are bounded
    // out of reporting by the leaf's valid count.
    nodes_[id].soa_begin = static_cast<std::uint32_t>(soa_x_.size());
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t pi = index_[i];
      soa_x_.push_back(points_[pi].x);
      soa_y_.push_back(points_[pi].y);
      soa_z_.push_back(points_[pi].z);
      soa_idx_.push_back(report_indices_.empty() ? pi : report_indices_[pi]);
    }
    constexpr float kPad = std::numeric_limits<float>::infinity();
    while (soa_x_.size() % kSoaLeafPad != 0) {
      soa_x_.push_back(kPad);
      soa_y_.push_back(kPad);
      soa_z_.push_back(kPad);
      soa_idx_.push_back(std::numeric_limits<std::uint32_t>::max());
    }
    return id;
  }
  // Pick the axis with the largest spread over this range.
  Vec3f lo{std::numeric_limits<float>::max(),
           std::numeric_limits<float>::max(),
           std::numeric_limits<float>::max()};
  Vec3f hi = -lo;
  for (std::uint32_t i = begin; i < end; ++i) {
    lo = min(lo, points_[index_[i]]);
    hi = max(hi, points_[index_[i]]);
  }
  const Vec3f spread = hi - lo;
  int axis = 0;
  if (spread.y > spread[axis]) axis = 1;
  if (spread.z > spread[axis]) axis = 2;
  if (spread[axis] == 0.0f) axis = depth % 3;  // degenerate: all coincident

  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(index_.begin() + begin, index_.begin() + mid,
                   index_.begin() + end,
                   [this, axis](std::uint32_t a, std::uint32_t b) {
                     return points_[a][axis] < points_[b][axis];
                   });
  nodes_[id].axis = axis;
  nodes_[id].split = points_[index_[mid]][axis];
  const std::uint32_t left = build_node(begin, mid, depth + 1);
  const std::uint32_t right = build_node(mid, end, depth + 1);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

std::vector<Neighbor> KdTree::knn(const Vec3f& query, std::size_t k) const {
  if (empty() || k == 0) return {};
  std::vector<Neighbor> out(std::min(k, size()));
  NeighborHeap heap(out);
  knn_into(query, heap);
  out.resize(heap.sort_ascending());
  return out;
}

template <typename ScanLeaf>
void KdTree::walk(const Vec3f& query, ScanLeaf&& scan_leaf) const {
  // Explicit-stack traversal (the hot path has no recursion): descend
  // toward the query, deferring each far subtree with the squared distance
  // to its splitting plane; after every leaf scan, resume the nearest
  // deferred subtree that can still contribute.
  std::uint32_t node_stack[kMaxDepth];
  float dist_stack[kMaxDepth];
  int sp = 0;
  std::uint32_t node_id = root_;
  for (;;) {
    const Node* node = &nodes_[node_id];
    while (node->axis >= 0) {
      const float delta = query[node->axis] - node->split;
      const bool left_near = delta < 0.0f;
      node_stack[sp] = left_near ? node->right : node->left;
      dist_stack[sp] = delta * delta;
      ++sp;
      node_id = left_near ? node->left : node->right;
      node = &nodes_[node_id];
    }
    const float worst = scan_leaf(*node);
    // Prune with > (not >=): a subtree whose plane distance exactly equals
    // the current worst may still hold an equidistant neighbor that wins
    // the (distance, index) tie-break.
    do {
      if (sp == 0) return;
      --sp;
    } while (dist_stack[sp] > worst);
    node_id = node_stack[sp];
  }
}

void KdTree::knn_into(const Vec3f& query, NeighborHeap& heap,
                      std::uint32_t index_offset,
                      std::uint32_t exclude) const {
  if (empty()) return;
  const LeafScanFn scan = active_leaf_scan();
  KnnTally tally;
  tally.queries = 1;
  const std::uint64_t pushes_before = heap.pushes();
  walk(query, [&](const Node& node) {
    ++tally.leaf_scans;
    tally.points_scanned += node.end - node.begin;
    scan(soa_x_.data() + node.soa_begin, soa_y_.data() + node.soa_begin,
         soa_z_.data() + node.soa_begin, soa_idx_.data() + node.soa_begin,
         node.end - node.begin, query, index_offset, exclude, heap);
    return heap.worst_dist2();
  });
  tally.heap_pushes = heap.pushes() - pushes_before;
  tally.flush();
}

void KdTree::self_knn_into(NeighborBuffer& out) const {
  const std::size_t k = out.stride();
  if (empty() || k == 0) return;
  const Top8ScanFn top8 = k <= Top8::kSlots ? active_top8_scan() : nullptr;
  const LeafScanFn scan = active_leaf_scan();
  KnnTally tally;
  Top8 best;
  for (const Node& leaf : nodes_) {
    if (leaf.axis >= 0) continue;
    tally.queries += leaf.end - leaf.begin;
    const std::uint32_t soa_end = leaf.soa_begin + (leaf.end - leaf.begin);
    for (std::uint32_t s = leaf.soa_begin; s < soa_end; ++s) {
      const Vec3f query{soa_x_[s], soa_y_[s], soa_z_[s]};
      const std::uint32_t self = soa_idx_[s];
      const std::span<Neighbor> slot = out.slot(self);
      // Report order is not leaf order, so the slot lies at a scattered
      // arena offset: request its lines for writing now, letting the miss
      // overlap the search instead of stalling the writes.
      for (std::size_t j = 0; j < k; j += 64 / sizeof(Neighbor)) {
        __builtin_prefetch(&slot[j], 1);
      }
      best.reset();
      NeighborHeap heap(slot);
      // Scans one leaf into the active collector and returns the pruning
      // bound: the k-th best distance so far (+inf until k are held).
      walk(query, [&](const Node& node) {
        ++tally.leaf_scans;
        tally.points_scanned += node.end - node.begin;
        const float* x = soa_x_.data() + node.soa_begin;
        const float* y = soa_y_.data() + node.soa_begin;
        const float* z = soa_z_.data() + node.soa_begin;
        const std::uint32_t* idx = soa_idx_.data() + node.soa_begin;
        if (top8 != nullptr) {
          tally.heap_pushes += top8(x, y, z, idx, node.end - node.begin,
                                    query, self, k, best);
          return best.dist2[k - 1];
        }
        scan(x, y, z, idx, node.end - node.begin, query, /*index_offset=*/0,
             self, heap);
        return heap.worst_dist2();
      });
      if (top8 != nullptr) {
        // Sentinel slots (fewer than k other points) are not reported.
        std::size_t n = 0;
        for (; n < k && best.index[n] != kNoExclude; ++n) {
          slot[n] = {best.index[n], best.dist2[n]};
        }
        out.set_count(self, n);
      } else {
        tally.heap_pushes += heap.pushes();
        out.set_count(self, heap.sort_ascending());
      }
    }
  }
  tally.flush();
}

Neighbor KdTree::nearest(const Vec3f& query) const {
  // Empty-tree sentinel (kNoNeighbor, +inf): callers fold it into metrics
  // as "infinitely far" instead of reading nodes_[0] out of bounds.
  Neighbor best{kNoNeighbor, std::numeric_limits<float>::infinity()};
  if (empty()) return best;
  NeighborHeap heap(std::span<Neighbor>(&best, 1));
  knn_into(query, heap);
  return best;
}

}  // namespace volut

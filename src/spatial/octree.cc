#include "src/spatial/octree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace volut {

namespace {
constexpr std::uint32_t kNoExclude =
    std::numeric_limits<std::uint32_t>::max();

/// Queries answered entirely by the own-cell fast path vs. ones that spilled
/// into the multi-cell search — the ratio the two-layer design bets on.
Counter& octree_query_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("spatial/octree_cell_queries");
  return c;
}
Counter& octree_spill_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("spatial/octree_spills");
  return c;
}
}  // namespace

void TwoLayerOctree::build(std::span<const Vec3f> positions,
                           ThreadPool* pool) {
  TraceSpan build_span("octree/build");
  // Rebuild in place: every container below is cleared/resized rather than
  // replaced, so a TwoLayerOctree held in a scratch struct and rebuilt each
  // frame reaches an allocation-free steady state (empty cells rebuild their
  // kd-tree over an empty span instead of being swapped for fresh objects).
  size_ = positions.size();
  flat_points_.clear();
  flat_to_global_.clear();
  for (auto& cell : cells_) {
    cell.begin = cell.end = 0;
  }
  bounds_ = AABB{};
  for (const Vec3f& p : positions) bounds_.expand(p);
  if (positions.empty()) return;
  // Guard against degenerate (flat) extents so cell_of stays well-defined.
  Vec3f ext = bounds_.extent();
  const float min_ext = std::max(1e-6f, bounds_.diagonal() * 1e-6f);
  ext.x = std::max(ext.x, min_ext);
  ext.y = std::max(ext.y, min_ext);
  ext.z = std::max(ext.z, min_ext);
  cell_extent_ = ext / static_cast<float>(kCellsPerAxis);

  // Counting sort of points into contiguous per-cell ranges (the "leaf
  // nodes store a subset of the points" layout): one flat array, each cell
  // owning [begin, end).
  TraceSpan sort_span("octree/counting_sort");
  std::vector<int>& cell_id = cell_id_scratch_;
  cell_id.resize(positions.size());
  std::array<std::uint32_t, kNumCells> counts{};
  for (std::size_t i = 0; i < positions.size(); ++i) {
    cell_id[i] = cell_of(positions[i]);
    ++counts[static_cast<std::size_t>(cell_id[i])];
  }
  std::uint32_t offset = 0;
  for (int c = 0; c < kNumCells; ++c) {
    cells_[static_cast<std::size_t>(c)].begin = offset;
    offset += counts[static_cast<std::size_t>(c)];
    cells_[static_cast<std::size_t>(c)].end = offset;
  }
  flat_points_.resize(positions.size());
  flat_to_global_.resize(positions.size());
  std::array<std::uint32_t, kNumCells> cursor{};
  for (int c = 0; c < kNumCells; ++c) {
    cursor[static_cast<std::size_t>(c)] =
        cells_[static_cast<std::size_t>(c)].begin;
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto c = static_cast<std::size_t>(cell_id[i]);
    flat_points_[cursor[c]] = positions[i];
    flat_to_global_[cursor[c]] = static_cast<std::uint32_t>(i);
    ++cursor[c];
  }
  sort_span.stop_ms();
  auto build_cells = [&](std::size_t begin, std::size_t end) {
    TraceSpan cells_span("octree/build_cells");
    for (std::size_t c = begin; c < end; ++c) {
      Cell& cell = cells_[c];
      // Cell trees report global indices directly (the report_indices
      // remap), so the shared heap tie-breaks on the indices consumers see
      // and no post-search remap pass is needed.
      cell.tree.build(
          std::span<const Vec3f>(flat_points_.data() + cell.begin,
                                 cell.end - cell.begin),
          std::span<const std::uint32_t>(flat_to_global_.data() + cell.begin,
                                         cell.end - cell.begin));
    }
  };
  if (pool != nullptr && pool->worker_count() > 1) {
    pool->parallel_for(
        kNumCells, [&](std::size_t b, std::size_t e) { build_cells(b, e); },
        /*min_grain=*/1);
  } else {
    build_cells(0, kNumCells);
  }
}

int TwoLayerOctree::cell_of(const Vec3f& p) const {
  int idx[3];
  for (int a = 0; a < 3; ++a) {
    const float rel = (p[a] - bounds_.lo[a]) / cell_extent_[a];
    idx[a] = std::clamp(static_cast<int>(rel), 0, kCellsPerAxis - 1);
  }
  return (idx[0] * kCellsPerAxis + idx[1]) * kCellsPerAxis + idx[2];
}

AABB TwoLayerOctree::cell_bounds(int cx, int cy, int cz) const {
  AABB box;
  box.lo = {bounds_.lo.x + cell_extent_.x * static_cast<float>(cx),
            bounds_.lo.y + cell_extent_.y * static_cast<float>(cy),
            bounds_.lo.z + cell_extent_.z * static_cast<float>(cz)};
  box.hi = box.lo + cell_extent_;
  return box;
}

void TwoLayerOctree::knn_into(const Vec3f& query, NeighborHeap& heap,
                              std::uint32_t exclude_global) const {
  // Fast path (the property the paper builds the two-layer octree around):
  // most queries resolve entirely within their own cell. Search it first; if
  // the current worst candidate is closer than every wall of the cell, no
  // other cell can contain a better neighbor and we are done.
  const int own = cell_of(query);
  const Cell& own_cell = cells_[static_cast<std::size_t>(own)];
  octree_query_counter().add();
  own_cell.tree.knn_into(query, heap, /*index_offset=*/0, exclude_global);
  if (heap.full()) {
    const int cx = own / (kCellsPerAxis * kCellsPerAxis);
    const int cy = (own / kCellsPerAxis) % kCellsPerAxis;
    const int cz = own % kCellsPerAxis;
    const AABB box = cell_bounds(cx, cy, cz);
    float wall2 = std::numeric_limits<float>::max();
    for (int a = 0; a < 3; ++a) {
      const float lo = query[a] - box.lo[a];
      const float hi = box.hi[a] - query[a];
      wall2 = std::min({wall2, lo * lo, hi * hi});
    }
    // Strict <: when the worst candidate sits at exactly wall distance, a
    // neighboring cell may hold an equidistant point that wins the
    // (distance, index) tie-break, so the spill search must still run.
    if (heap.worst_dist2() < wall2) return;
  }

  // Slow path: order the remaining cells by distance from the query to the
  // cell box; search in that order (sharing the heap so the worst-distance
  // bound prunes across cells) and stop once the next cell cannot beat the
  // current worst neighbor.
  octree_spill_counter().add();
  struct CellDist {
    float d2;
    int cell;
    bool operator<(const CellDist& o) const { return d2 < o.d2; }
  };
  std::array<CellDist, kNumCells> order;
  int n = 0;
  for (int cx = 0; cx < kCellsPerAxis; ++cx) {
    for (int cy = 0; cy < kCellsPerAxis; ++cy) {
      for (int cz = 0; cz < kCellsPerAxis; ++cz) {
        const int cell = (cx * kCellsPerAxis + cy) * kCellsPerAxis + cz;
        if (cell == own) continue;  // already searched in the fast path
        const Cell& c = cells_[static_cast<std::size_t>(cell)];
        if (c.end == c.begin) continue;
        order[static_cast<std::size_t>(n++)] = {
            cell_bounds(cx, cy, cz).distance2(query), cell};
      }
    }
  }
  std::sort(order.begin(), order.begin() + n);
  for (int i = 0; i < n; ++i) {
    // > (not >=): a cell at exactly the worst distance may still hold an
    // equidistant neighbor that wins the index tie-break.
    if (heap.full() &&
        order[static_cast<std::size_t>(i)].d2 > heap.worst_dist2()) {
      break;
    }
    const Cell& cell =
        cells_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)].cell)];
    cell.tree.knn_into(query, heap, /*index_offset=*/0, exclude_global);
  }
}

std::vector<Neighbor> TwoLayerOctree::knn(const Vec3f& query,
                                          std::size_t k) const {
  if (empty() || k == 0) return {};
  std::vector<Neighbor> result(std::min(k, size()));
  NeighborHeap heap(result);
  knn_into(query, heap, kNoExclude);
  result.resize(heap.sort_ascending());
  return result;
}

void TwoLayerOctree::batch_knn(std::size_t k, NeighborBuffer& out,
                               ThreadPool* pool, bool exact) const {
  const std::size_t kk = empty() ? 0 : std::min(k, size() - 1);
  out.resize(size(), kk);
  if (empty() || kk == 0) return;
  auto run_cell_range = [&](std::size_t cell_begin, std::size_t cell_end) {
    for (std::size_t c = cell_begin; c < cell_end; ++c) {
      const Cell& cell = cells_[c];
      // Own-cell search: a cell holding more than kk points answers every
      // one of its queries itself, in leaf order (cell trees report global
      // indices, so each list lands straight in its final slot).
      if (!exact && cell.end - cell.begin > kk) {
        cell.tree.self_knn_into(out);
        continue;
      }
      for (std::uint32_t fi = cell.begin; fi < cell.end; ++fi) {
        // The query's arena slot backs the heap; cell trees report global
        // indices directly, so the sorted slot is the final answer.
        const std::uint32_t g = flat_to_global_[fi];
        const std::span<Neighbor> storage = out.slot(g);
        NeighborHeap heap(storage);
        if (exact) {
          knn_into(flat_points_[fi], heap, g);
        } else {
          // Under-populated cell: own-cell search first, spilling to the
          // full search when the cell cannot fill k slots.
          cell.tree.knn_into(flat_points_[fi], heap, /*index_offset=*/0, g);
          if (!heap.full()) {
            heap.clear();
            knn_into(flat_points_[fi], heap, g);
          }
        }
        out.set_count(g, heap.sort_ascending());
      }
    }
  };
  if (pool != nullptr && pool->worker_count() > 1) {
    pool->parallel_for(
        kNumCells,
        [&](std::size_t b, std::size_t e) { run_cell_range(b, e); },
        /*min_grain=*/1);
  } else {
    run_cell_range(0, kNumCells);
  }
}

NeighborBuffer TwoLayerOctree::batch_knn(std::size_t k, ThreadPool* pool,
                                         bool exact) const {
  NeighborBuffer out;
  batch_knn(k, out, pool, exact);
  return out;
}

}  // namespace volut

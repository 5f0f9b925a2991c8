#include "src/spatial/knn.h"

#include <array>

#include "src/platform/thread_pool.h"
#include "src/spatial/kdtree.h"

namespace volut {

namespace {
/// Stack-buffer cap of merge_and_prune_into; also the hard ceiling on how
/// many merged neighbors one call can return.
constexpr std::size_t kMaxCand = 64;
}  // namespace

std::size_t merge_and_prune_into(std::span<const Neighbor> a,
                                 std::span<const Neighbor> b,
                                 const Vec3f& query,
                                 std::span<const Vec3f> positions,
                                 std::size_t k, std::span<Neighbor> out) {
  // Candidate lists are tiny (<= 2*(k+1) entries on the hot path); a fixed
  // stack buffer with insertion sort avoids any heap allocation per call —
  // this runs once per interpolated point.
  std::array<Neighbor, kMaxCand> best;
  std::array<std::size_t, kMaxCand> seen;
  std::size_t best_n = 0;
  std::size_t seen_n = 0;
  const std::size_t cap = std::min({k, kMaxCand, out.size()});
  if (cap == 0) return 0;

  auto consider = [&](std::size_t index) {
    for (std::size_t s = 0; s < seen_n; ++s) {
      if (seen[s] == index) return;  // deduplicate shared candidates
    }
    if (seen_n < kMaxCand) {
      seen[seen_n++] = index;
    } else {
      // `seen` is saturated, so this candidate cannot be recorded; if a
      // duplicate of it arrives later, the seen-scan above won't catch it.
      // Every kept candidate is either in `seen` or findable in `best`, so
      // dedup against `best` directly (unkept duplicates are harmless —
      // they re-lose the same comparison).
      for (std::size_t s = 0; s < best_n; ++s) {
        if (best[s].index == index) return;
      }
    }
    const Neighbor cand{index, distance2(query, positions[index])};
    // Ordering (distance, then index) matches Neighbor::operator< so ties —
    // e.g. the two parents of a midpoint, exactly equidistant — resolve the
    // same way as an exact kNN query.
    if (best_n == cap && !(cand < best[best_n - 1])) return;
    std::size_t pos = best_n < cap ? best_n : cap - 1;
    if (best_n < cap) ++best_n;
    while (pos > 0 && cand < best[pos - 1]) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = cand;
  };

  for (const Neighbor& n : a) consider(n.index);
  for (const Neighbor& n : b) consider(n.index);

  std::copy(best.begin(), best.begin() + best_n, out.begin());
  return best_n;
}

void batch_knn_kdtree(const KdTree& tree, std::span<const Vec3f> queries,
                      std::size_t k, NeighborBuffer& out, ThreadPool* pool,
                      bool exclude_self) {
  out.resize(queries.size(), k);
  if (queries.empty() || k == 0 || tree.empty()) return;
  constexpr std::uint32_t kNoExclude =
      std::numeric_limits<std::uint32_t>::max();
  run_parallel(
      pool, queries.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          // The query's arena slot doubles as the heap's backing storage:
          // the search, the sort and the result share one allocation-free
          // buffer.
          NeighborHeap heap(out.slot(i));
          tree.knn_into(
              queries[i], heap, /*index_offset=*/0,
              exclude_self ? static_cast<std::uint32_t>(i) : kNoExclude);
          out.set_count(i, heap.sort_ascending());
        }
      },
      /*min_grain=*/256);
}

NeighborBuffer batch_knn_kdtree(const KdTree& tree,
                                std::span<const Vec3f> queries, std::size_t k,
                                ThreadPool* pool, bool exclude_self) {
  NeighborBuffer out;
  batch_knn_kdtree(tree, queries, k, out, pool, exclude_self);
  return out;
}

}  // namespace volut

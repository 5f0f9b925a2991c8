// Tests for kd-tree, two-layer octree and neighbor reuse. The octree and
// kd-tree are verified against brute force on randomized clouds
// (parameterized over size and k).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "src/core/rng.h"
#include "src/core/vec3.h"
#include "src/obs/metrics.h"
#include "src/platform/thread_pool.h"
#include "src/spatial/kdtree.h"
#include "src/spatial/knn.h"
#include "src/spatial/knn_simd.h"
#include "src/spatial/octree.h"

namespace volut {
namespace {

std::vector<Vec3f> random_points(std::size_t n, Rng& rng, float extent = 1.0f) {
  std::vector<Vec3f> pts(n);
  for (Vec3f& p : pts) {
    p = {rng.uniform(-extent, extent), rng.uniform(-extent, extent),
         rng.uniform(-extent, extent)};
  }
  return pts;
}

std::vector<Neighbor> brute_knn(const std::vector<Vec3f>& pts,
                                const Vec3f& q, std::size_t k,
                                std::size_t exclude = SIZE_MAX) {
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i == exclude) continue;
    all.push_back({i, distance2(q, pts[i])});
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(NeighborHeapTest, KeepsKSmallest) {
  std::array<Neighbor, 3> storage;
  NeighborHeap heap(storage);
  for (std::size_t i = 0; i < 10; ++i) {
    heap.push(i, float(10 - i));  // distances 10..1
  }
  ASSERT_EQ(heap.sort_ascending(), 3u);
  EXPECT_FLOAT_EQ(storage[0].dist2, 1.0f);
  EXPECT_FLOAT_EQ(storage[1].dist2, 2.0f);
  EXPECT_FLOAT_EQ(storage[2].dist2, 3.0f);
}

TEST(NeighborHeapTest, WorstDistInfiniteUntilFull) {
  std::array<Neighbor, 2> storage;
  NeighborHeap heap(storage);
  EXPECT_TRUE(std::isinf(heap.worst_dist2()));
  heap.push(0, 1.0f);
  EXPECT_TRUE(std::isinf(heap.worst_dist2()));
  heap.push(1, 2.0f);
  EXPECT_FLOAT_EQ(heap.worst_dist2(), 2.0f);
}

TEST(NeighborHeapTest, ClearReusesStorage) {
  std::array<Neighbor, 2> storage;
  NeighborHeap heap(storage);
  heap.push(0, 5.0f);
  heap.push(1, 1.0f);
  EXPECT_TRUE(heap.full());
  heap.clear();
  EXPECT_EQ(heap.size(), 0u);
  heap.push(7, 3.0f);
  ASSERT_EQ(heap.sort_ascending(), 1u);
  EXPECT_EQ(storage[0].index, 7u);
}

TEST(NeighborBufferTest, ResizeShapesAndZeroesCounts) {
  NeighborBuffer buf;
  EXPECT_TRUE(buf.empty());
  buf.resize(3, 4);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.stride(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(buf.count(i), 0u);
    EXPECT_TRUE(buf[i].empty());
    EXPECT_EQ(buf.slot(i).size(), 4u);
  }
}

TEST(NeighborBufferTest, TruncatedNeighborhoodExposesValidPrefixOnly) {
  NeighborBuffer buf;
  buf.resize(2, 4);
  auto slot = buf.slot(0);
  slot[0] = {5, 0.5f};
  slot[1] = {9, 1.5f};
  buf.set_count(0, 2);  // 2 of 4 slots valid (e.g. a tiny cloud)
  ASSERT_EQ(buf[0].size(), 2u);
  EXPECT_EQ(buf[0][0].index, 5u);
  EXPECT_EQ(buf[0][1].index, 9u);
  EXPECT_TRUE(buf[1].empty());
}

TEST(NeighborBufferTest, ZeroStrideAndReshape) {
  NeighborBuffer buf;
  buf.resize(4, 0);  // k = 0: queries exist, no neighbor slots
  EXPECT_EQ(buf.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(buf[i].empty());
  buf.resize(0, 8);  // empty cloud
  EXPECT_TRUE(buf.empty());
  buf.resize(2, 3);  // reshape after both degenerate forms
  buf.slot(1)[0] = {1, 0.25f};
  buf.set_count(1, 1);
  EXPECT_EQ(buf[1].size(), 1u);
}

TEST(NeighborBufferTest, ReshapeResetsStaleCounts) {
  NeighborBuffer buf;
  buf.resize(2, 2);
  buf.set_count(0, 2);
  buf.set_count(1, 1);
  buf.resize(3, 2);  // a new frame must not inherit old counts
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(buf.count(i), 0u);
}

TEST(BatchKnnKdtreeTest, BufferHandlesCloudSmallerThanK) {
  Rng rng(80);
  const auto pts = random_points(3, rng);
  const KdTree tree(pts);
  NeighborBuffer buf;
  batch_knn_kdtree(tree, pts, 8, buf, /*pool=*/nullptr,
                   /*exclude_self=*/true);
  ASSERT_EQ(buf.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(buf[i].size(), 2u);  // truncated: only 2 other points exist
    for (const Neighbor& n : buf[i]) EXPECT_NE(n.index, i);
  }
}

TEST(BatchKnnKdtreeTest, EmptyCloudAndZeroK) {
  const KdTree empty_tree;
  NeighborBuffer buf;
  batch_knn_kdtree(empty_tree, {}, 4, buf);
  EXPECT_TRUE(buf.empty());
  Rng rng(81);
  const auto pts = random_points(10, rng);
  const KdTree tree(pts);
  batch_knn_kdtree(tree, pts, 0, buf);
  ASSERT_EQ(buf.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_TRUE(buf[i].empty());
}

TEST(BatchKnnKdtreeTest, ReusedBufferMatchesFreshBuffer) {
  Rng rng(82);
  const auto big = random_points(600, rng);
  const auto small = random_points(50, rng);
  const KdTree big_tree(big);
  const KdTree small_tree(small);
  NeighborBuffer reused;
  batch_knn_kdtree(big_tree, big, 6, reused);    // grows the arena
  batch_knn_kdtree(small_tree, small, 4, reused);  // shrinks in place
  const NeighborBuffer fresh = batch_knn_kdtree(small_tree, small, 4);
  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(reused[i].size(), fresh[i].size());
    for (std::size_t j = 0; j < fresh[i].size(); ++j) {
      EXPECT_EQ(reused[i][j].index, fresh[i][j].index);
      EXPECT_EQ(reused[i][j].dist2, fresh[i][j].dist2);
    }
  }
}

TEST(KdTreeTest, EmptyAndSinglePoint) {
  KdTree empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.knn({0, 0, 0}, 3).empty());

  const std::vector<Vec3f> one = {{1, 2, 3}};
  KdTree tree(one);
  const auto nn = tree.knn({0, 0, 0}, 5);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].index, 0u);
}

TEST(KdTreeTest, NearestOnGrid) {
  std::vector<Vec3f> pts;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) pts.push_back({float(x), float(y), 0});
  }
  KdTree tree(pts);
  const Neighbor n = tree.nearest({2.2f, 3.1f, 0});
  EXPECT_EQ(pts[n.index], (Vec3f{2, 3, 0}));
}

TEST(KdTreeTest, HandlesCoincidentPoints) {
  std::vector<Vec3f> pts(100, Vec3f{1, 1, 1});
  KdTree tree(pts);
  const auto nn = tree.knn({1, 1, 1}, 5);
  ASSERT_EQ(nn.size(), 5u);
  for (const auto& n : nn) EXPECT_FLOAT_EQ(n.dist2, 0.0f);
}

struct KnnCase {
  std::size_t n;
  std::size_t k;
};

class KnnAgreementTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(KnnAgreementTest, KdTreeMatchesBruteForce) {
  const auto [n, k] = GetParam();
  Rng rng(n * 31 + k);
  const auto pts = random_points(n, rng);
  KdTree tree(pts);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3f q{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const auto got = tree.knn(q, k);
    const auto want = brute_knn(pts, q, k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_FLOAT_EQ(got[i].dist2, want[i].dist2) << "trial " << trial;
    }
  }
}

TEST_P(KnnAgreementTest, OctreeMatchesBruteForce) {
  const auto [n, k] = GetParam();
  Rng rng(n * 17 + k);
  const auto pts = random_points(n, rng);
  TwoLayerOctree octree(pts);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3f q{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const auto got = octree.knn(q, k);
    const auto want = brute_knn(pts, q, k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_FLOAT_EQ(got[i].dist2, want[i].dist2) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnAgreementTest,
    ::testing::Values(KnnCase{16, 1}, KnnCase{16, 4}, KnnCase{100, 3},
                      KnnCase{100, 8}, KnnCase{1000, 4}, KnnCase{1000, 16},
                      KnnCase{5000, 8}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

TEST(OctreeTest, BatchKnnExcludesSelfAndMatchesPerQuery) {
  Rng rng(5);
  const auto pts = random_points(800, rng);
  TwoLayerOctree octree(pts);
  const auto batch = octree.batch_knn(4, nullptr);
  ASSERT_EQ(batch.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); i += 97) {
    const auto want = brute_knn(pts, pts[i], 4, /*exclude=*/i);
    ASSERT_EQ(batch[i].size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_FLOAT_EQ(batch[i][j].dist2, want[j].dist2);
      EXPECT_NE(batch[i][j].index, i);
    }
  }
}

TEST(OctreeTest, BatchKnnParallelMatchesSerial) {
  Rng rng(6);
  const auto pts = random_points(2000, rng);
  TwoLayerOctree octree(pts);
  ThreadPool pool(4);
  for (const bool exact : {true, false}) {
    const auto serial = octree.batch_knn(4, nullptr, exact);
    const auto parallel = octree.batch_knn(4, &pool, exact);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial.count(i), parallel.count(i)) << "query " << i;
      ASSERT_EQ(serial.count(i), 4u) << "query " << i;
      for (std::size_t j = 0; j < serial[i].size(); ++j) {
        EXPECT_EQ(serial[i][j].index, parallel[i][j].index);
        EXPECT_EQ(serial[i][j].dist2, parallel[i][j].dist2);
      }
    }
  }
}

#if VOLUT_OBS_ENABLED
TEST(OctreeTest, OwnCellBatchCountsOneQueryPerPoint) {
  // Every cell of a uniform 5k cloud holds far more than k points, so the
  // own-cell batch answers each point with exactly one self-query; the
  // per-call counter flush must add up to the same total as per-query adds.
  Rng rng(8);
  const auto pts = random_points(5000, rng);
  TwoLayerOctree octree(pts);
  for (int c = 0; c < TwoLayerOctree::kNumCells; ++c) {
    ASSERT_GT(octree.cell_size(c), 8u) << "cell " << c;
  }
  ThreadPool pool(4);
  const MetricsRegistry& reg = MetricsRegistry::global();
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::uint64_t before = reg.counter_value("spatial/knn_queries");
    NeighborBuffer out;
    octree.batch_knn(8, out, p, /*exact=*/false);
    EXPECT_EQ(reg.counter_value("spatial/knn_queries") - before, pts.size());
  }
}
#endif

TEST(OctreeTest, CellAssignmentCoversAllPoints) {
  Rng rng(7);
  const auto pts = random_points(1000, rng);
  TwoLayerOctree octree(pts);
  std::size_t total = 0;
  for (int c = 0; c < TwoLayerOctree::kNumCells; ++c) {
    total += octree.cell_size(c);
  }
  EXPECT_EQ(total, pts.size());
}

TEST(OctreeTest, DegenerateFlatCloud) {
  // All points in a plane: cell extent on one axis collapses.
  std::vector<Vec3f> pts;
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(-1, 1), 0.0f, rng.uniform(-1, 1)});
  }
  TwoLayerOctree octree(pts);
  const auto nn = octree.knn({0, 0, 0}, 5);
  const auto want = brute_knn(pts, {0, 0, 0}, 5);
  ASSERT_EQ(nn.size(), 5u);
  EXPECT_FLOAT_EQ(nn[0].dist2, want[0].dist2);
}

TEST(MergeAndPruneTest, RecoversTrueNeighborsOfMidpoint) {
  Rng rng(9);
  const auto pts = random_points(400, rng);
  KdTree tree(pts);
  int exact_hits = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const std::size_t pi = rng.next(pts.size());
    const auto np = tree.knn(pts[pi], 8);
    const std::size_t qi = np[1].index;  // a close-by partner
    const Vec3f mid = midpoint(pts[pi], pts[qi]);

    const auto nq = tree.knn(pts[qi], 8);
    std::array<Neighbor, 4> merged;
    ASSERT_EQ(merge_and_prune_into(np, nq, mid, pts, 4, merged), 4u);
    const auto want = brute_knn(pts, mid, 4);
    bool all_match = true;
    for (std::size_t j = 0; j < 4; ++j) {
      if (merged[j].index != want[j].index) all_match = false;
    }
    exact_hits += all_match;
  }
  // Eq. 2 is an approximation; it should recover the exact set in the vast
  // majority of cases when parents' lists are reasonably wide.
  EXPECT_GE(exact_hits, trials * 7 / 10);
}

TEST(MergeAndPruneTest, DeduplicatesSharedCandidates) {
  const std::vector<Vec3f> pts = {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}};
  const std::vector<Neighbor> a = {{0, 0.f}, {1, 0.f}};
  const std::vector<Neighbor> b = {{1, 0.f}, {2, 0.f}};
  std::array<Neighbor, 3> merged;
  ASSERT_EQ(merge_and_prune_into(a, b, {1, 0, 0}, pts, 3, merged), 3u);
  EXPECT_EQ(merged[0].index, 1u);  // distance 0
}

TEST(BatchKnnKdtreeTest, MatchesPerQueryKnn) {
  Rng rng(77);
  const auto pts = random_points(500, rng);
  const KdTree tree(pts);
  const auto batched = batch_knn_kdtree(tree, pts, 5);
  ASSERT_EQ(batched.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); i += 37) {
    const auto want = tree.knn(pts[i], 5);
    ASSERT_EQ(batched[i].size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(batched[i][j].index, want[j].index);
    }
  }
}

TEST(BatchKnnKdtreeTest, ExcludeSelfDropsTheQueryPoint) {
  Rng rng(78);
  const auto pts = random_points(300, rng);
  const KdTree tree(pts);
  const auto batched = batch_knn_kdtree(tree, pts, 4, /*pool=*/nullptr,
                                        /*exclude_self=*/true);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(batched[i].size(), 4u);
    for (const Neighbor& n : batched[i]) EXPECT_NE(n.index, i);
  }
}

TEST(KdTreeTest, NearestOnEmptyTreeReturnsSentinel) {
  // Regression: nearest() used to call search(root_, ...) without an empty()
  // check, reading nodes_[0] out of bounds on an empty tree.
  const KdTree empty;
  const Neighbor n = empty.nearest({1, 2, 3});
  EXPECT_EQ(n.index, KdTree::kNoNeighbor);
  EXPECT_TRUE(std::isinf(n.dist2));
}

TEST(KdTreeTest, EmptyAndOnePointEdgeCases) {
  const KdTree empty;
  EXPECT_TRUE(empty.knn({0, 0, 0}, 4).empty());
  std::array<Neighbor, 4> storage;
  NeighborHeap heap(storage);
  empty.knn_into({0, 0, 0}, heap);  // must be a no-op, not an OOB read
  EXPECT_EQ(heap.size(), 0u);

  const std::vector<Vec3f> one = {{1, 2, 3}};
  const KdTree tree(one);
  const Neighbor n = tree.nearest({1, 2, 4});
  EXPECT_EQ(n.index, 0u);
  EXPECT_FLOAT_EQ(n.dist2, 1.0f);
}

TEST(NeighborHeapTest, EquidistantTiesKeepLowestIndicesAtAnyOrder) {
  // Regression: push() used to reject equal-distance candidates outright, so
  // the kept set depended on insertion order. Under the (distance, index)
  // order the heap must keep indices {0, 1, 2} however the ties arrive.
  const std::vector<std::vector<std::size_t>> orders = {
      {0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {3, 0, 5, 2, 4, 1}};
  for (const auto& order : orders) {
    std::array<Neighbor, 3> storage;
    NeighborHeap heap(storage);
    for (const std::size_t index : order) heap.push(index, 1.0f);
    ASSERT_EQ(heap.sort_ascending(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(storage[i].index, i) << "order starting with " << order[0];
    }
  }
}

TEST(KnnTieBreakTest, LatticeTiesResolveByIndexOnEveryEngine) {
  // Integer lattice: float arithmetic is exact, so equidistant shells are
  // genuine ties and the (distance, index) order fully determines the
  // result. Indices (not just distances) must match brute force.
  std::vector<Vec3f> pts;
  for (int x = 0; x < 7; ++x) {
    for (int y = 0; y < 7; ++y) {
      for (int z = 0; z < 7; ++z) {
        pts.push_back({float(x), float(y), float(z)});
      }
    }
  }
  const KdTree tree(pts);
  const TwoLayerOctree octree(pts);
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    // On-lattice and half-lattice queries maximize exact ties.
    const Vec3f q{float(rng.next(13)) * 0.5f, float(rng.next(13)) * 0.5f,
                  float(rng.next(13)) * 0.5f};
    for (const std::size_t k : {1u, 4u, 7u}) {
      const auto want = brute_knn(pts, q, k);
      const auto got_kd = tree.knn(q, k);
      const auto got_oct = octree.knn(q, k);
      ASSERT_EQ(got_kd.size(), want.size());
      ASSERT_EQ(got_oct.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got_kd[i].index, want[i].index) << "trial " << trial;
        EXPECT_EQ(got_oct[i].index, want[i].index) << "trial " << trial;
      }
    }
  }
}

TEST(KnnTieBreakTest, HeapMatchesMergeAndPruneOnLatticeMidpoints) {
  // Eq. 2 parity on symmetric midpoints: both parents are exactly
  // equidistant from the midpoint, so heap searches and merge_and_prune_into
  // must break the tie identically (by index) for the lists to agree.
  std::vector<Vec3f> pts;
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 6; ++y) {
      for (int z = 0; z < 6; ++z) {
        pts.push_back({float(x), float(y), float(z)});
      }
    }
  }
  const KdTree tree(pts);
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t pi = rng.next(pts.size());
    const auto np = tree.knn(pts[pi], 16);
    const std::size_t qi = np[1].index;  // an adjacent lattice point
    const Vec3f mid = midpoint(pts[pi], pts[qi]);
    const auto nq = tree.knn(pts[qi], 16);
    std::array<Neighbor, 4> merged;
    const std::size_t merged_n =
        merge_and_prune_into(np, nq, mid, pts, 4, merged);
    const auto exact = tree.knn(mid, 4);
    ASSERT_EQ(merged_n, exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(merged[i].index, exact[i].index) << "trial " << trial;
      EXPECT_EQ(merged[i].dist2, exact[i].dist2) << "trial " << trial;
    }
  }
}

TEST(MergeAndPruneTest, DeduplicatesBeyondSeenListCapacity) {
  // Regression: with more than 64 distinct candidate indices the `seen` list
  // saturates; a candidate admitted to the result after that point was never
  // recorded, so a later duplicate of it could appear in the output twice.
  std::vector<Vec3f> pts;
  for (int i = 0; i < 70; ++i) pts.push_back({float(i), 0, 0});
  const Vec3f query = pts[64];  // index 64 is the 65th candidate of `a`
  std::vector<Neighbor> a;
  for (std::size_t i = 0; i <= 64; ++i) a.push_back({i, 0.0f});
  const std::vector<Neighbor> b = {{64, 0.0f}, {65, 0.0f}, {64, 0.0f}};
  std::array<Neighbor, 8> out;
  const std::size_t n = merge_and_prune_into(a, b, query, pts, 8, out);
  ASSERT_EQ(n, 8u);
  EXPECT_EQ(out[0].index, 64u);  // the query point itself, distance 0
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_NE(out[i].index, out[j].index)
          << "duplicate index at output slots " << i << " and " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD backend: every dispatch level must be bit-identical to the scalar
// oracle — same indices, same distances, same tie order — at every worker
// count, for both the kd-tree batch and the octree batch engines.
// ---------------------------------------------------------------------------

/// Restores default dispatch even when an assertion fails mid-test.
struct SimdLevelGuard {
  ~SimdLevelGuard() { simd_clear_forced_level(); }
};

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (simd_available(level)) levels.push_back(level);
  }
  return levels;
}

void expect_buffers_identical(const NeighborBuffer& got,
                              const NeighborBuffer& want,
                              const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << label << " query " << i;
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      ASSERT_EQ(got[i][j].index, want[i][j].index)
          << label << " query " << i << " slot " << j;
      ASSERT_EQ(got[i][j].dist2, want[i][j].dist2)
          << label << " query " << i << " slot " << j;
    }
  }
}

TEST(SimdKnnTest, DispatchStateIsConsistent) {
  SimdLevelGuard guard;
  EXPECT_TRUE(simd_available(SimdLevel::kScalar));
  EXPECT_TRUE(simd_force_level(SimdLevel::kScalar));
  EXPECT_EQ(simd_active_level(), SimdLevel::kScalar);
  for (const SimdLevel level : available_levels()) {
    EXPECT_TRUE(simd_force_level(level));
    EXPECT_EQ(simd_active_level(), level);
    EXPECT_NE(leaf_scan_kernel(level), nullptr);
    EXPECT_EQ(active_leaf_scan(), leaf_scan_kernel(level));
  }
  // The active level never exceeds what the cpuid probe found.
  simd_clear_forced_level();
  EXPECT_LE(static_cast<int>(simd_active_level()),
            static_cast<int>(simd_detected_level()));
}

TEST(SimdKnnTest, AllLevelsBitIdenticalToScalarAcrossThreads) {
  SimdLevelGuard guard;
  // A random cloud (generic geometry) and a lattice (every distance tied):
  // the latter is where a lax vector prefilter or tie-break would diverge.
  std::vector<std::vector<Vec3f>> clouds;
  Rng rng(83);
  clouds.push_back(random_points(3000, rng));
  clouds.emplace_back();
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      for (int z = 0; z < 12; ++z) {
        clouds.back().push_back({float(x), float(y), float(z)});
      }
    }
  }
  for (const auto& pts : clouds) {
    const KdTree tree(pts);
    const TwoLayerOctree octree(pts);
    ASSERT_TRUE(simd_force_level(SimdLevel::kScalar));
    const NeighborBuffer ref_kd = batch_knn_kdtree(tree, pts, 8, nullptr,
                                                   /*exclude_self=*/true);
    const NeighborBuffer ref_oct = octree.batch_knn(8, nullptr);
    for (const SimdLevel level : available_levels()) {
      ASSERT_TRUE(simd_force_level(level));
      for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(workers);
        ThreadPool* p = workers > 1 ? &pool : nullptr;
        const NeighborBuffer kd =
            batch_knn_kdtree(tree, pts, 8, p, /*exclude_self=*/true);
        expect_buffers_identical(kd, ref_kd, simd_level_name(level));
        const NeighborBuffer oct = octree.batch_knn(8, p);
        expect_buffers_identical(oct, ref_oct, simd_level_name(level));
      }
    }
  }
}

/// The contract of batch_knn(k, out, pool, /*exact=*/false), by brute
/// force: the k nearest (under Neighbor's order) among the other points of
/// the query's own cell, or among all other points when that cell holds no
/// more than k of them.
NeighborBuffer own_cell_oracle(const TwoLayerOctree& octree,
                               const std::vector<Vec3f>& pts, std::size_t k) {
  const std::size_t kk = std::min(k, pts.size() - 1);
  std::vector<std::vector<std::size_t>> members(TwoLayerOctree::kNumCells);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    members[static_cast<std::size_t>(octree.cell_of(pts[i]))].push_back(i);
  }
  NeighborBuffer out;
  out.resize(pts.size(), kk);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto& cell =
        members[static_cast<std::size_t>(octree.cell_of(pts[i]))];
    std::vector<Neighbor> want;
    if (cell.size() > kk) {
      for (const std::size_t j : cell) {
        if (j != i) want.push_back({j, distance2(pts[i], pts[j])});
      }
      std::sort(want.begin(), want.end());
      want.resize(kk);
    } else {
      want = brute_knn(pts, pts[i], kk, /*exclude=*/i);
    }
    std::copy(want.begin(), want.end(), out.slot(i).begin());
    out.set_count(i, want.size());
  }
  return out;
}

TEST(SimdKnnTest, OwnCellBatchMatchesOracleAtEveryLevelAndWorkerCount) {
  SimdLevelGuard guard;
  std::vector<std::vector<Vec3f>> clouds;
  Rng rng(84);
  clouds.push_back(random_points(4000, rng));
  // A lattice: every distance ties, so only the index tie-break orders them.
  clouds.emplace_back();
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      for (int z = 0; z < 12; ++z) {
        clouds.back().push_back({float(x), float(y), float(z)});
      }
    }
  }
  // Every point twice, the copies far apart in index: zero-distance ties.
  clouds.push_back(random_points(1500, rng));
  const std::vector<Vec3f> copies = clouds.back();
  clouds.back().insert(clouds.back().end(), copies.begin(), copies.end());
  // Points crowded toward one corner plus two outliers: many cells hold no
  // more than k points and take the exact spill search.
  clouds.emplace_back();
  for (int i = 0; i < 300; ++i) {
    const Vec3f p = random_points(1, rng)[0];
    clouds.back().push_back({p.x * p.x, p.y * p.y * p.y, p.z});
  }
  clouds.back().push_back({5.0f, 5.0f, 5.0f});
  clouds.back().push_back({-3.0f, 2.0f, 1.0f});
  for (std::size_t c = 0; c < clouds.size(); ++c) {
    const auto& pts = clouds[c];
    const TwoLayerOctree octree(pts);
    if (c + 1 == clouds.size()) {
      ASSERT_EQ(octree.cell_size(octree.cell_of(pts.back())), 1u);
    }
    for (const std::size_t k : {1u, 4u, 8u, 9u}) {
      const NeighborBuffer want = own_cell_oracle(octree, pts, k);
      for (const SimdLevel level : available_levels()) {
        ASSERT_TRUE(simd_force_level(level));
        for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
          ThreadPool pool(workers);
          NeighborBuffer got;
          octree.batch_knn(k, got, workers > 1 ? &pool : nullptr,
                           /*exact=*/false);
          const std::string label = "cloud " + std::to_string(c) + " k " +
                                    std::to_string(k) + " " +
                                    simd_level_name(level) + " x" +
                                    std::to_string(workers);
          expect_buffers_identical(got, want, label.c_str());
        }
      }
    }
  }
}

TEST(SimdKnnTest, SelfKnnMatchesPerQuerySearchAtEveryLevel) {
  // KdTree::self_knn_into on its own (no report-index remap), for strides
  // the top-8 kernel takes (<= 8) and one it leaves to the heap (12). The
  // 10^3 lattice spans dozens of leaves with points on every split plane,
  // so neighbors tie with the plane bounds the walk prunes on; its points
  // are stored in a scrambled order so the index tie-break can favour a
  // neighbor in any direction, including one across a pruned plane.
  SimdLevelGuard guard;
  Rng rng(85);
  std::vector<std::vector<Vec3f>> clouds{random_points(2000, rng),
                                         std::vector<Vec3f>(1000)};
  for (int i = 0; i < 1000; ++i) {
    clouds.back()[std::size_t(i * 7919 % 1000)] = {
        float(i / 100), float(i / 10 % 10), float(i % 10)};
  }
  for (const auto& pts : clouds) {
    const KdTree tree(pts);
    // Sorted brute-force lists: each smaller k takes a prefix.
    std::vector<std::vector<Neighbor>> brute(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      brute[i] = brute_knn(pts, pts[i], 12, /*exclude=*/i);
    }
    for (const std::size_t k : {1u, 3u, 8u, 12u}) {
      NeighborBuffer want;
      want.resize(pts.size(), k);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        std::copy_n(brute[i].begin(), k, want.slot(i).begin());
        want.set_count(i, k);
      }
      for (const SimdLevel level : available_levels()) {
        ASSERT_TRUE(simd_force_level(level));
        NeighborBuffer got;
        got.resize(pts.size(), k);
        tree.self_knn_into(got);
        expect_buffers_identical(got, want, simd_level_name(level));
      }
    }
  }
}

TEST(SimdKnnTest, VectorLevelsMatchBruteForceIndicesOnLattice) {
  // Exactness (not just cross-level consistency): the active level — whatever
  // the host supports — must reproduce brute-force indices through genuine
  // float ties.
  SimdLevelGuard guard;
  std::vector<Vec3f> pts;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      for (int z = 0; z < 8; ++z) {
        pts.push_back({float(x), float(y), float(z)});
      }
    }
  }
  for (const SimdLevel level : available_levels()) {
    ASSERT_TRUE(simd_force_level(level));
    const KdTree tree(pts);
    const NeighborBuffer batch = batch_knn_kdtree(tree, pts, 6, nullptr,
                                                  /*exclude_self=*/true);
    for (std::size_t i = 0; i < pts.size(); i += 41) {
      const auto want = brute_knn(pts, pts[i], 6, /*exclude=*/i);
      ASSERT_EQ(batch[i].size(), want.size());
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(batch[i][j].index, want[j].index)
            << simd_level_name(level) << " query " << i << " slot " << j;
      }
    }
  }
}

TEST(BatchKnnKdtreeTest, PoolResultIsBitIdenticalToSerial) {
  Rng rng(79);
  const auto pts = random_points(3000, rng);
  const KdTree tree(pts);
  ThreadPool pool(4);
  const auto serial = batch_knn_kdtree(tree, pts, 6, /*pool=*/nullptr,
                                       /*exclude_self=*/true);
  const auto parallel =
      batch_knn_kdtree(tree, pts, 6, &pool, /*exclude_self=*/true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size()) << "query " << i;
    for (std::size_t j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(serial[i][j].index, parallel[i][j].index);
      EXPECT_EQ(serial[i][j].dist2, parallel[i][j].dist2);
    }
  }
}

}  // namespace
}  // namespace volut

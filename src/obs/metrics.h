// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms with JSON and Prometheus-style text exposition.
//
// Design point: registration is cold (mutex-guarded name lookup, done once
// per call site), increments are hot (one relaxed atomic RMW on a handle the
// call site caches). Hot paths therefore hold a Counter*/Gauge*/Histogram*
// — handles have stable addresses for the life of the process (instruments
// live in node-based maps and are never erased; reset() zeroes values but
// keeps registrations).
//
// Determinism contract: counters and histogram buckets are unsigned integers
// bumped with commutative relaxed adds, so their totals are bit-identical
// for any ThreadPool worker count, matching the repo-wide reproducibility
// bar. Gauges carry doubles and are last-writer-wins; the fleet only writes
// them from its single-threaded timeline.
//
// Compile-out: building with -DVOLUT_OBS=OFF defines VOLUT_OBS_ENABLED=0,
// which turns add()/set()/observe() into empty inlines — the registry and
// exposition still compile (everything reads zero), so no call site needs
// an #ifdef.
#pragma once

#ifndef VOLUT_OBS_ENABLED
#define VOLUT_OBS_ENABLED 1
#endif

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/mutex.h"
#include "src/core/thread_annotations.h"

namespace volut {

struct TsaProbe;

/// Monotonically increasing unsigned counter. add() is wait-free (one
/// relaxed fetch_add) and compiles to nothing under VOLUT_OBS=OFF.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
#if VOLUT_OBS_ENABLED
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins double gauge, plus a ratcheting set_max for peaks.
class Gauge {
 public:
  void set(double v) {
#if VOLUT_OBS_ENABLED
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  /// Raises the gauge to `v` if `v` is larger (peak tracking). NaN is
  /// ignored — a corrupt sample must not poison the peak.
  void set_max(double v) {
#if VOLUT_OBS_ENABLED
    if (std::isnan(v)) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper edges,
/// plus an implicit +inf overflow bucket. Buckets are integer counts bumped
/// with relaxed adds (no floating-point sum), so totals stay bit-identical
/// across worker counts. Edge pinning follows density_bucket
/// (serve/encode_cache.h): NaN and -inf land in bucket 0, +inf in the
/// overflow bucket — a corrupt sample never produces an unspecified index.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bucket `v` falls into: the first i with v <= bounds[i], the overflow
  /// bucket otherwise. Exposed so tests can pin the edge behavior.
  std::size_t bucket_index(double v) const {
    if (std::isnan(v)) return 0;  // pinned, like density_bucket
    std::size_t i = 0;
    while (i < bounds_.size() && !(v <= bounds_[i])) ++i;
    return i;
  }

  void observe(double v) {
#if VOLUT_OBS_ENABLED
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  /// bounds().size() + 1 buckets; the last is the +inf overflow bucket.
  std::size_t bucket_count() const { return counts_.size(); }
  std::span<const double> bounds() const { return bounds_; }

  std::uint64_t bucket_value(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& c : counts_) t += c.load(std::memory_order_relaxed);
    return t;
  }

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
};

/// Name -> instrument registry. Names are slash-separated paths
/// ("spatial/knn_queries", "spatial/leaf_scans/avx2"); exposition sorts by
/// name, and the Prometheus form rewrites path separators to underscores.
class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented module writes into.
  static MetricsRegistry& global();

  /// Returns the counter registered under `name`, creating it on first use.
  /// The reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First registration wins the bucket layout; later calls with different
  /// bounds return the existing histogram unchanged.
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  /// Value of a registered counter, 0 when `name` was never registered.
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  /// All registered counters whose name starts with `prefix`, sorted by
  /// name — the exposition path examples/tests use for per-shard rollups.
  std::vector<std::pair<std::string, std::uint64_t>> counters_with_prefix(
      std::string_view prefix) const;

  std::size_t metric_count() const;

  /// Zeroes every instrument but keeps all registrations (handles cached by
  /// hot paths stay valid). Tests reset between runs to compare totals.
  void reset();

  /// {"schema": "volut-metrics-v1", "counters": {...}, "gauges": {...},
  ///  "histograms": {...}} — names sorted, values exact.
  std::string to_json() const;

  /// Prometheus text exposition: one "volut_<name>" family per instrument
  /// ('/' and other non-identifier characters become '_'), histograms in
  /// cumulative le-bucket form.
  std::string to_prometheus() const;

  /// Writes to_json() to `path`; false (with a stderr note) on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  /// Compile-fail probe access (tests/static/thread_safety_probe.cc).
  friend struct TsaProbe;

  /// Registration and snapshot paths lock; the returned Counter*/Gauge*/
  /// Histogram* handles are deliberately lock-free — instruments live in
  /// node-based maps, are never erased, and mutate via their own atomics,
  /// so an escaped reference stays valid and race-free for the registry's
  /// lifetime (the contract the header comment documents).
  mutable Mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_
      VOLUT_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ VOLUT_GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> histograms_
      VOLUT_GUARDED_BY(mu_);
};

}  // namespace volut

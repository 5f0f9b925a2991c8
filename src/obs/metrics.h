// Process-wide metrics registry: named counters with JSON exposition.
//
// Design point: registration is cold (mutex-guarded name lookup, done once
// per call site), increments are hot (one relaxed atomic RMW on a handle the
// call site caches). Hot paths therefore hold a Counter* — handles have
// stable addresses for the life of the process (counters live in a
// node-based map and are never erased; reset() zeroes values but keeps
// registrations).
//
// Determinism contract: counters are unsigned integers bumped with
// commutative relaxed adds, so their totals are bit-identical for any
// ThreadPool worker count, matching the repo-wide reproducibility bar.
//
// Compile-out: building with -DVOLUT_OBS=OFF defines VOLUT_OBS_ENABLED=0,
// which turns add() into an empty inline — the registry and exposition
// still compile (everything reads zero), so no call site needs an #ifdef.
#pragma once

#ifndef VOLUT_OBS_ENABLED
#define VOLUT_OBS_ENABLED 1
#endif

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

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

/// Name -> counter registry. Names are slash-separated paths
/// ("spatial/knn_queries", "spatial/leaf_scans/avx2"); exposition sorts by
/// name.
class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented module writes into.
  static MetricsRegistry& global();

  /// Returns the counter registered under `name`, creating it on first use.
  /// The reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);

  /// Value of a registered counter, 0 when `name` was never registered.
  std::uint64_t counter_value(std::string_view name) const;

  /// Zeroes every counter but keeps all registrations (handles cached by
  /// hot paths stay valid). Tests reset between runs to compare totals.
  void reset();

  /// {"schema": "volut-metrics-v2", "counters": {...}} — names sorted,
  /// values exact.
  std::string to_json() const;

  /// Writes to_json() to `path`; false (with a stderr note) on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  /// Compile-fail probe access (tests/static/thread_safety_probe.cc).
  friend struct TsaProbe;

  /// Registration and snapshot paths lock; the returned Counter handles are
  /// deliberately lock-free — counters live in a node-based map, are never
  /// erased, and mutate via their own atomics, so an escaped reference stays
  /// valid and race-free for the registry's lifetime (the contract the
  /// header comment documents).
  mutable Mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_
      VOLUT_GUARDED_BY(mu_);
};

}  // namespace volut

#include "src/serve/encode_queue.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/core/rng.h"
#include "src/obs/event_log.h"

namespace volut {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Full SplitMix64 step (golden-ratio offset + core mix64 finalizer):
/// decorrelates sequential ids and near-identical hashes alike.
std::uint64_t ring_mix(std::uint64_t x) {
  return mix64(x + 0x9e3779b97f4a7c15ull);
}

}  // namespace

HashRing::HashRing(std::size_t shards, std::size_t vnodes_per_shard)
    : shards_(std::max<std::size_t>(1, shards)) {
  vnodes_per_shard = std::max<std::size_t>(1, vnodes_per_shard);
  ring_.reserve(shards_ * vnodes_per_shard);
  for (std::size_t s = 0; s < shards_; ++s) {
    for (std::size_t v = 0; v < vnodes_per_shard; ++v) {
      const std::uint64_t pos = ring_mix((std::uint64_t(s) << 20) | v);
      ring_.emplace_back(pos, std::uint32_t(s));
    }
  }
  // Position collisions are astronomically unlikely, but resolve them by
  // shard index so the map stays deterministic either way.
  std::sort(ring_.begin(), ring_.end());
}

std::size_t HashRing::shard_of(std::uint64_t key_hash) const {
  if (shards_ == 1) return 0;
  // FNV-style hashes of near-identical keys (adjacent chunks of one video)
  // cluster in the high bits and would all fall into one inter-vnode gap;
  // finalize to avalanche quality before placing the key on the ring.
  const std::uint64_t placed = ring_mix(key_hash);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(placed, std::uint32_t(0)));
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

EncodeQueue::EncodeQueue(std::size_t shards, std::size_t total_budget_bytes)
    : ring_(std::max<std::size_t>(1, shards)) {
  const std::size_t n = ring_.shard_count();
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    shards_.emplace_back(total_budget_bytes / n);
  }
}

void EncodeQueue::set_fault_policy(EncodeFaultPolicy policy) {
  if (policy.max_attempts == 0) {
    throw std::invalid_argument("EncodeQueue: max_attempts must be >= 1");
  }
  fault_policy_ = std::move(policy);
}

void EncodeQueue::finish_encode(const EncodeCacheKey& key, std::size_t bytes,
                                double time) {
  const std::size_t shard = shard_of(key);
  const std::size_t evicted = shards_[shard].insert(key, bytes);
  ++stats_.completions;
  if (event_log_ != nullptr) {
    event_log_->record(time, FleetEventType::kEncodeComplete, kNoSession,
                       std::int32_t(shard), double(bytes));
    if (evicted > 0) {
      event_log_->record(time, FleetEventType::kCacheEvict, kNoSession,
                         std::int32_t(shard), double(evicted));
    }
  }
}

EncodeQueue::Decision EncodeQueue::request(const EncodeCacheKey& key,
                                           std::size_t bytes, double now,
                                           double encode_seconds,
                                           std::int32_t replica_hint) {
  EncodeCache& cache = shards_[shard_of(key)];
  if (cache.lookup(key)) {
    return {/*hit=*/true, /*coalesced=*/false, /*ready_at=*/now};
  }
  const auto it = in_flight_.find(key);
  if (it != in_flight_.end()) {
    ++stats_.coalesced_joins;
    ++it->second.waiters;
    return {false, /*coalesced=*/true, it->second.ready_at};
  }
  // A fresh request retries a terminally-failed key from scratch.
  failed_.erase(key);
  ++stats_.encode_starts;
  if (encode_seconds <= 0.0 && !fault_policy_.attempt_fails) {
    // Free encode: the artifact exists at once, so insert it now and serve
    // it with no wait (a miss, then an insert, at the same instant).
    // With a fault policy armed even free encodes go through the schedule,
    // so their attempts can fail and retry like any other.
    finish_encode(key, bytes, now);
    return {false, false, now};
  }
  const double ready_at = now + std::max(0.0, encode_seconds);
  InFlight encode;
  encode.ready_at = ready_at;
  encode.seq = seq_;
  encode.seq0 = seq_;
  encode.bytes = bytes;
  encode.encode_seconds = std::max(0.0, encode_seconds);
  encode.attempt = 1;
  encode.waiters = 1;
  encode.replica = replica_hint;
  in_flight_.emplace(key, encode);
  schedule_.emplace(std::make_pair(ready_at, seq_), key);
  ++seq_;
  stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_.size());
  return {false, false, ready_at};
}

void EncodeQueue::abandon(const EncodeCacheKey& key) {
  const auto it = in_flight_.find(key);
  if (it != in_flight_.end() && it->second.waiters > 0) {
    --it->second.waiters;
  }
}

EncodeQueue::KeyState EncodeQueue::key_state(const EncodeCacheKey& key) const {
  if (shards_[shard_of(key)].contains(key)) return KeyState::kResident;
  if (in_flight_.count(key) != 0) return KeyState::kInFlight;
  if (failed_.count(key) != 0) return KeyState::kFailed;
  return KeyState::kAbsent;
}

double EncodeQueue::in_flight_ready_at(const EncodeCacheKey& key) const {
  const auto it = in_flight_.find(key);
  return it == in_flight_.end() ? kInf : it->second.ready_at;
}

double EncodeQueue::next_ready() const {
  return schedule_.empty() ? kInf : schedule_.begin()->first.first;
}

std::vector<EncodeQueue::Completion> EncodeQueue::complete_until(
    double time) {
  std::vector<Completion> settled;
  while (!schedule_.empty() && schedule_.begin()->first.first <= time) {
    const EncodeCacheKey key = schedule_.begin()->second;
    schedule_.erase(schedule_.begin());
    const auto it = in_flight_.find(key);
    if (it == in_flight_.end()) {
      throw std::logic_error("EncodeQueue: scheduled encode has no entry");
    }
    InFlight& encode = it->second;
    const double when = encode.ready_at;
    Completion outcome;
    outcome.key = key;
    outcome.time = when;
    outcome.attempt = encode.attempt;
    outcome.replica = encode.replica;
    const bool fails =
        fault_policy_.attempt_fails &&
        fault_policy_.attempt_fails(encode.seq0, encode.attempt);
    if (!fails) {
      if (encode.waiters == 0) {
        // Every requester departed mid-encode; the artifact still lands in
        // its shard (the work was paid for — the next request hits), but
        // the completion served nobody.
        ++stats_.abandoned;
        if (event_log_ != nullptr) {
          event_log_->record(when, FleetEventType::kEncodeAbandon, kNoSession,
                             encode.replica);
        }
      }
      finish_encode(key, encode.bytes, when);
      in_flight_.erase(it);
      settled.push_back(outcome);
      continue;
    }
    outcome.success = false;
    ++stats_.failures;
    if (event_log_ != nullptr) {
      event_log_->record(when, FleetEventType::kEncodeFail, kNoSession,
                         encode.replica, double(encode.attempt));
    }
    if (encode.attempt >= fault_policy_.max_attempts) {
      outcome.terminal = true;
      ++stats_.exhausted;
      if (event_log_ != nullptr) {
        event_log_->record(when, FleetEventType::kEncodeGiveUp, kNoSession,
                           encode.replica, double(encode.attempt));
      }
      failed_[key] = when;
      in_flight_.erase(it);
      settled.push_back(outcome);
      continue;
    }
    // Re-run after capped exponential backoff; waiters stay attached.
    const std::uint32_t exponent =
        std::min<std::uint32_t>(encode.attempt - 1, 62);  // cap wins anyway
    const double backoff =
        std::min(fault_policy_.backoff_cap_seconds,
                 fault_policy_.backoff_base_seconds *
                     double(std::uint64_t(1) << exponent));
    ++stats_.retries;
    if (event_log_ != nullptr) {
      event_log_->record(when, FleetEventType::kEncodeRetry, kNoSession,
                         encode.replica, backoff);
    }
    ++encode.attempt;
    encode.ready_at = when + backoff + encode.encode_seconds;
    encode.seq = seq_++;
    schedule_.emplace(std::make_pair(encode.ready_at, encode.seq), key);
    settled.push_back(outcome);
  }
  return settled;
}

EncodeCacheStats EncodeQueue::cache_stats() const {
  EncodeCacheStats total;
  for (const EncodeCache& cache : shards_) {
    const EncodeCacheStats& s = cache.stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.insertions += s.insertions;
    total.oversized_rejects += s.oversized_rejects;
  }
  return total;
}

}  // namespace volut

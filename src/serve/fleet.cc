#include "src/serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/metrics/chamfer.h"
#include "src/sr/pipeline.h"
#include "src/stream/server.h"

namespace volut {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoReplica = std::size_t(-1);

enum class ClientState {
  kPending,      // not yet arrived
  kWaiting,      // in the admission waiting room; t_next = timeout deadline
  kIdle,         // will issue its next chunk request at t_next
  kRequested,    // request in flight: RTT + (on cache miss) encode latency
  kDownloading,  // owns an active flow on its replica's uplink
  kDone,
  kRejected,
  kFailed,       // admitted session lost to a fault (terminal encode
                 // failure, or no capacity to fail over to)
};

struct ClientRuntime {
  std::unique_ptr<SessionEngine> engine;
  ClientState state = ClientState::kPending;
  std::size_t replica = kNoReplica;
  /// Next state-transition time for kPending/kWaiting/kIdle/kRequested.
  double t_next = 0.0;
  double issued_at = 0.0;
  /// When this client entered the waiting room (kWaiting only).
  double waiting_since = 0.0;
  double flow_bytes = 0.0;
  std::uint64_t flow_id = 0;
  bool startup_flow = false;
  /// Quality switches already reported to the event log, so each
  /// complete_chunk emits at most one kQualitySwitch for its own delta.
  std::size_t switches_seen = 0;
  ChunkPlan plan;
  // ---- failover bookkeeping (crash recovery only) ----
  /// When this session was unbound from its crashed replica.
  double failover_since = 0.0;
  /// Interrupted mid-chunk: re-issue `plan` (without re-planning — the ABR
  /// already advanced) once re-admitted.
  bool redo_chunk = false;
  /// Interrupted during the startup download: re-issue it once re-admitted.
  bool redo_startup = false;
  /// Idle at crash time: resume the next request at this time (not before).
  double resume_at = 0.0;
};

/// The states whose next transition is timed by ClientRuntime::t_next.
bool is_timed(ClientState state) {
  return state == ClientState::kPending || state == ClientState::kWaiting ||
         state == ClientState::kIdle || state == ClientState::kRequested;
}

/// Due-time index over the clients in timed states: a min-heap of
/// (t_next, client) with lazy invalidation, plus the set of clients due at
/// the current instant. A heap entry is live only while its client is in a
/// timed state with exactly that t_next; re-filing pushes a fresh entry and
/// leaves the old one to be skipped. The event loop then costs O(log n) per
/// transition instead of a scan over every client per phase.
class DueIndex {
 public:
  explicit DueIndex(const std::vector<ClientRuntime>& clients)
      : clients_(clients), in_due_(clients.size(), 0) {
    for (std::size_t i = 0; i < clients.size(); ++i) push(i);
  }

  /// Earliest t_next over the timed clients, +inf when there is none.
  double next_time() {
    while (!heap_.empty() && !live(heap_.front())) pop();
    return heap_.empty() ? kInf : heap_.front().first;
  }

  /// Moves every client due at `now` into the due set.
  void collect(double now) {
    while (!heap_.empty() && heap_.front().first <= now) {
      const Entry entry = pop();
      // A client re-filed at the same time twice has two live entries.
      if (live(entry) && !in_due_[entry.second]) add_due(entry.second);
    }
  }

  /// Re-files client i after its state or t_next changed at `now`: due now
  /// joins the current due set (later phases of this instant see it), due
  /// later goes on the heap. Members of the due set are re-filed by flush().
  void update(std::size_t i, double now) {
    if (in_due_[i] || !is_timed(clients_[i].state)) return;
    if (clients_[i].t_next <= now) {
      add_due(i);
    } else {
      push(i);
    }
  }

  /// The clients due now in ascending index order — the order the phases
  /// of one instant visit clients in.
  const std::vector<std::size_t>& due() {
    if (!sorted_) {
      std::sort(due_.begin(), due_.end());
      sorted_ = true;
    }
    return due_;
  }

  /// Ends the instant: due clients still in a timed state go back on the
  /// heap, including any still due now (zero-RTT releases).
  void flush() {
    for (const std::size_t i : due_) {
      in_due_[i] = 0;
      push(i);
    }
    due_.clear();
    sorted_ = true;
  }

 private:
  using Entry = std::pair<double, std::size_t>;

  bool live(const Entry& entry) const {
    const ClientRuntime& c = clients_[entry.second];
    return is_timed(c.state) && c.t_next == entry.first;
  }
  void push(std::size_t i) {
    const ClientRuntime& c = clients_[i];
    // A waiter with unbounded patience has no deadline to schedule.
    if (!is_timed(c.state) || !(c.t_next < kInf)) return;
    heap_.emplace_back(c.t_next, i);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const Entry entry = heap_.back();
    heap_.pop_back();
    return entry;
  }
  void add_due(std::size_t i) {
    in_due_[i] = 1;
    sorted_ = sorted_ && (due_.empty() || due_.back() < i);
    due_.push_back(i);
  }

  const std::vector<ClientRuntime>& clients_;
  std::vector<Entry> heap_;
  std::vector<std::size_t> due_;
  std::vector<char> in_due_;
  bool sorted_ = true;
};

/// Due-time index over the replica uplinks: a tournament tree whose leaf r
/// holds link r's projected next completion and whose inner nodes hold the
/// minimum of their children. Leaves are padded to a power of two with
/// +inf. A refresh costs O(log R), the next-event term reads the root, and
/// collecting the links due at `now` visits only subtrees that hold one.
class LinkDueTree {
 public:
  explicit LinkDueTree(std::size_t replicas) {
    while (leaves_ < replicas) leaves_ *= 2;
    tree_.assign(2 * leaves_, kInf);
  }

  /// Earliest projected completion over every link, +inf when none.
  double next_time() const { return tree_[1]; }

  /// Files link r's new projection: its leaf and the leaf's ancestors.
  void set(std::size_t r, double due) {
    std::size_t k = leaves_ + r;
    tree_[k] = due;
    for (k /= 2; k >= 1; k /= 2) {
      tree_[k] = std::min(tree_[2 * k], tree_[2 * k + 1]);
    }
  }

  /// Fills `out` with every replica whose projection is <= now, in
  /// ascending replica index (a left-first descent).
  void collect(double now, std::vector<std::size_t>& out) const {
    out.clear();
    descend(1, now, out);
  }

 private:
  void descend(std::size_t k, double now,
               std::vector<std::size_t>& out) const {
    if (tree_[k] > now) return;
    if (k >= leaves_) {
      out.push_back(k - leaves_);
      return;
    }
    descend(2 * k, now, out);
    descend(2 * k + 1, now, out);
  }

  std::size_t leaves_ = 1;
  std::vector<double> tree_;
};

struct SrWorkItem {
  std::size_t client = 0;
  std::size_t chunk = 0;
  double density_ratio = 1.0;
  VideoSpec spec;
  double chunk_seconds = 1.0;
};

EncodeCacheKey cache_key(const VideoSpec& spec, std::size_t chunk,
                         double density_ratio, std::uint32_t buckets) {
  EncodeCacheKey key;
  key.video = static_cast<std::uint32_t>(spec.id);
  key.points_per_frame = static_cast<std::uint32_t>(spec.points_per_frame);
  key.content_seed = static_cast<std::uint32_t>(spec.seed);
  key.chunk = static_cast<std::uint32_t>(chunk);
  key.density_bucket = density_bucket(density_ratio, buckets);
  return key;
}

/// Least-loaded replica with a free admission slot, lowest index on ties.
/// Health-aware: down replicas are skipped outright and healthy replicas
/// win over degraded ones regardless of load (degraded capacity is a last
/// resort). With every replica healthy this reduces exactly to the original
/// least-loaded rule, which is what keeps fault-free routing bit-identical.
/// kNoReplica when no up replica has a slot.
std::size_t route_arrival(const std::vector<std::size_t>& load,
                          std::size_t cap, const std::vector<char>& down,
                          const std::vector<char>& degraded) {
  std::size_t best = kNoReplica;
  bool best_degraded = false;
  for (std::size_t r = 0; r < load.size(); ++r) {
    if (down[r]) continue;
    if (cap != 0 && load[r] >= cap) continue;
    const bool deg = degraded[r] != 0;
    if (best == kNoReplica || (best_degraded && !deg) ||
        (deg == best_degraded && load[r] < load[best])) {
      best = r;
      best_degraded = deg;
    }
  }
  return best;
}

void measure_sr_samples(const std::vector<SrWorkItem>& work,
                        std::shared_ptr<const RefinementLut> lut,
                        std::vector<FleetSrSample>& out, ThreadPool* pool) {
  out.resize(work.size());
  if (lut == nullptr) {
    // Blank LUT: zero refinement offsets, i.e. interpolation-only SR.
    lut = std::make_shared<RefinementLut>(LutSpec{4, 16});
  }
  InterpolationConfig interp;
  interp.dilation = 2;
  // Every sample regenerates its own VideoServer (the server's sampling RNG
  // is stateful) and writes one fixed slot, so the fan-out is bit-identical
  // for any worker count. Only sr_ms is wall-clock and excluded from that
  // guarantee.
  run_chunked(pool, work.size(), 1,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t s = begin; s < end; ++s) {
                  const SrWorkItem& item = work[s];
                  VideoServer server(item.spec);
                  const PointCloud low = server.encode_sample_frame(
                      item.chunk, item.density_ratio, item.chunk_seconds);
                  const PointCloud gt = server.ground_truth_frame(
                      item.chunk, item.chunk_seconds);
                  const SrPipeline pipeline(lut, interp, nullptr);
                  const SrResult sr =
                      pipeline.upsample(low, 1.0 / item.density_ratio);
                  FleetSrSample& sample = out[s];
                  sample.client = item.client;
                  sample.chunk = item.chunk;
                  sample.density_ratio = item.density_ratio;
                  sample.chamfer = directed_chamfer(gt, sr.cloud);
                  sample.sr_ms = sr.timing.total_ms();
                }
              });
}

}  // namespace

FleetResult run_fleet(const FleetConfig& config, ThreadPool* pool) {
  if (config.replica_uplinks.empty()) {
    throw std::invalid_argument("run_fleet: at least one replica required");
  }
  const std::size_t n_clients = config.clients.size();
  const std::size_t n_replicas = config.replica_uplinks.size();

  // Compile the fault schedule up front (validates the config; an empty
  // schedule makes every fault branch below a no-op).
  const FaultSchedule faults(config.faults, n_replicas);
  const bool faults_armed = !faults.empty();

  std::vector<SharedLink> links;
  links.reserve(n_replicas);
  for (const BandwidthTrace& uplink : config.replica_uplinks) {
    links.emplace_back(uplink);
  }
  // Event-driven uplinks: link r was last advanced to link_clock[r], and
  // link_due's leaf r caches its next completion from there. A link is
  // walked only when that projection comes due or when the loop mutates it.
  std::vector<double> link_clock(n_replicas, 0.0);
  LinkDueTree link_due(n_replicas);
  std::vector<std::size_t> due_links;  // phase 1's links due now, reused
  due_links.reserve(n_replicas);
  EncodeQueue queue(config.shard_cache_per_replica ? n_replicas : 1,
                    config.cache_budget_bytes);
  // single-threaded: run_fleet — the timeline below is the fleet's one
  // event loop; everything it mutates (queue, log, waiting room, health
  // arrays) is unguarded by design. Only the measured-SR fan-out leaves
  // this thread, and each sample writes its own result slot.
  // Event timeline: recorded only from this (single-threaded) event loop and
  // keyed by sim time, so it shares the run's bit-identity guarantee.
  EventLog log(config.event_log_capacity);
  queue.set_event_log(&log);
  if (faults_armed && config.faults.encode_failure_rate > 0.0) {
    EncodeFaultPolicy policy;
    policy.attempt_fails = [&faults](std::uint64_t seq,
                                     std::uint32_t attempt) {
      return faults.encode_attempt_fails(seq, attempt);
    };
    policy.max_attempts =
        std::max<std::uint32_t>(1, config.recovery.encode_max_attempts);
    policy.backoff_base_seconds = config.recovery.encode_backoff_base_seconds;
    policy.backoff_cap_seconds = config.recovery.encode_backoff_cap_seconds;
    queue.set_fault_policy(std::move(policy));
  }
  std::vector<ClientRuntime> clients(n_clients);
  std::vector<std::size_t> load(n_replicas, 0);
  std::deque<std::size_t> waiting_room;  // FIFO of kWaiting client indices
  std::vector<SrWorkItem> sr_work;

  // Per-replica health: down (crash window), scheduled degradation, circuit
  // breaker, and the uplink scale last applied. eff_degraded is the OR the
  // routing/encode paths consult; *_since timestamps feed the exposure
  // accounting in ReplicaStats.
  std::vector<char> down(n_replicas, 0);
  std::vector<char> sched_degraded(n_replicas, 0);
  std::vector<char> breaker_open(n_replicas, 0);
  std::vector<char> eff_degraded(n_replicas, 0);
  std::vector<double> breaker_until(n_replicas, kInf);
  std::vector<std::uint32_t> consec_encode_failures(n_replicas, 0);
  std::vector<double> link_scale(n_replicas, 1.0);
  std::vector<double> down_since(n_replicas, 0.0);
  std::vector<double> degraded_since(n_replicas, 0.0);
  std::vector<double> failover_latencies;

  FleetResult result;
  result.sessions.resize(n_clients);
  result.replica_of.assign(n_clients, kNoReplica);
  result.wait_seconds.assign(n_clients, 0.0);
  result.replicas.resize(n_replicas);

  std::size_t remaining = n_clients;
  std::size_t expected_chunks = 0;
  for (std::size_t i = 0; i < n_clients; ++i) {
    clients[i].t_next = config.clients[i].arrival_seconds;
    expected_chunks += config.clients[i].session.max_chunks + 2;
  }
  DueIndex due_index(clients);

  double now = 0.0;
  // Event-driven faults: the schedule is piecewise constant between its
  // edges, so a fault pass can change state only at an edge or an open
  // breaker's expiry. fault_due caches the earliest of those after the last
  // pass; a breaker trip lowers it. +inf with faults disarmed.
  double fault_due = faults.next_transition_after(0.0);

  /// Brings link r up to `now` before the loop mutates its flow set or rate
  /// scale. Phase 1 already settled every completion due by now, so none
  /// may surface here. Inside the first rate segment of the projection
  /// refresh_due kept, the link resumes from it instead of walking. A link
  /// already at `now` is left alone: a zero-byte flow started this instant
  /// is due now and completes in the next pass.
  const auto sync_link = [&](std::size_t r) {
    if (link_clock[r] == now) return;
    if (!links[r].advance(link_clock[r], now).empty()) {
      throw std::logic_error(
          "run_fleet: uplink completion surfaced outside its due time");
    }
    link_clock[r] = now;
  };
  const auto refresh_due = [&](std::size_t r) {
    link_due.set(r, links[r].next_completion_time(link_clock[r]));
  };

  /// Recomputes a replica's effective degradation (schedule OR breaker) and
  /// books the exposure interval on a falling edge.
  const auto refresh_degraded = [&](std::size_t r, double when) {
    const char want = (sched_degraded[r] || breaker_open[r]) ? 1 : 0;
    if (want == eff_degraded[r]) return;
    if (want) {
      degraded_since[r] = when;
    } else {
      result.replicas[r].degraded_seconds += when - degraded_since[r];
    }
    eff_degraded[r] = want;
  };

  /// Server-side encode latency for client i's current plan; degraded
  /// replicas encode slower.
  const auto encode_latency = [&](const ClientRuntime& c) {
    double seconds = config.encode_seconds_full * c.plan.density_ratio;
    if (faults_armed && c.replica != kNoReplica && eff_degraded[c.replica]) {
      seconds *= config.recovery.degraded_encode_factor;
    }
    return seconds;
  };

  /// Issues the network/encode request for client i's current plan at `now`.
  /// `fresh` marks a first issue (sets issued_at and samples SR work); a
  /// failover redo keeps the original issued_at so the crash + failover gap
  /// lands in the chunk's download time — and therefore in QoE stalls.
  const auto submit_request = [&](std::size_t i, bool fresh) {
    ClientRuntime& c = clients[i];
    const SessionConfig& session = c.engine->config();
    const double encode_seconds = encode_latency(c);
    const auto ci = std::uint32_t(i);
    const auto cr = std::int32_t(c.replica);
    log.record(now, FleetEventType::kChunkRequest, ci, cr,
               double(c.plan.index));
    // ViVo encodes are culled to the requesting viewer's predicted
    // viewport, so they are per-client artifacts: always encoded fresh,
    // never cached (and never poisoning the shared key space). They also
    // bypass the encode-fault axis, which models the shared encoder pool.
    double ready_at = now + encode_seconds;
    if (session.kind != SystemKind::kVivo) {
      const EncodeQueue::Decision decision = queue.request(
          cache_key(session.video, c.plan.index, c.plan.density_ratio,
                    config.density_buckets),
          static_cast<std::size_t>(c.plan.bytes), now, encode_seconds, cr);
      ready_at = decision.ready_at;
      log.record(now,
                 decision.hit ? FleetEventType::kCacheHit
                              : FleetEventType::kCacheMiss,
                 ci, cr);
      if (decision.coalesced) {
        log.record(now, FleetEventType::kEncodeCoalesce, ci, cr,
                   decision.ready_at);
      } else if (!decision.hit) {
        log.record(now, FleetEventType::kEncodeStart, ci, cr,
                   encode_seconds);
      }
    } else {
      // Per-viewer artifact: by construction a miss with a fresh encode.
      log.record(now, FleetEventType::kCacheMiss, ci, cr);
      log.record(now, FleetEventType::kEncodeStart, ci, cr, encode_seconds);
    }
    if (fresh && config.measure_sr_stride != 0 &&
        c.plan.index % config.measure_sr_stride == 0 &&
        (session.kind == SystemKind::kVolutContinuous ||
         session.kind == SystemKind::kVolutDiscrete)) {
      sr_work.push_back({i, c.plan.index, c.plan.density_ratio,
                         session.video, session.chunk_seconds});
    }
    c.state = ClientState::kRequested;
    if (fresh) c.issued_at = now;
    c.flow_bytes = c.plan.bytes;
    c.startup_flow = false;
    c.t_next = ready_at + config.rtt_seconds;
    due_index.update(i, now);
  };

  /// Converts an admitted session into a fault casualty. The partial
  /// session stays in the rollups; the slot (if still bound) frees.
  const auto fail_session = [&](std::size_t i, double when) {
    ClientRuntime& c = clients[i];
    const std::int32_t cr =
        c.replica == kNoReplica ? -1 : std::int32_t(c.replica);
    if (c.replica != kNoReplica) {
      --load[c.replica];
      c.replica = kNoReplica;
    }
    log.record(when, FleetEventType::kSessionFail, std::uint32_t(i), cr);
    c.state = ClientState::kFailed;
    --remaining;
  };

  // Admission bookkeeping shared by immediate arrivals and waiting-room
  // promotions: binds client i to replica r, starting its session at `when`.
  // A client that already has an engine is a crashed-replica failover: the
  // session resumes where it left off instead of starting over.
  const auto admit_client = [&](std::size_t i, std::size_t r, double when) {
    ClientRuntime& c = clients[i];
    if (c.engine) {
      c.replica = r;
      ++load[r];
      result.replica_of[i] = r;
      ++result.replicas[r].sessions_assigned;
      const double latency = when - c.failover_since;
      failover_latencies.push_back(latency);
      log.record(when, FleetEventType::kFailoverComplete, std::uint32_t(i),
                 std::int32_t(r), latency);
      if (c.redo_startup) {
        c.redo_startup = false;
        c.state = ClientState::kRequested;
        c.t_next = when + config.rtt_seconds;
        c.flow_bytes = c.engine->startup_bytes();
        c.startup_flow = true;
      } else if (c.redo_chunk) {
        c.redo_chunk = false;
        submit_request(i, /*fresh=*/false);  // re-files i itself
        return;
      } else {
        c.state = ClientState::kIdle;
        c.t_next = std::max(c.resume_at, when);
      }
      due_index.update(i, now);
      return;
    }
    c.replica = r;
    ++load[r];
    result.replica_of[i] = r;
    ++result.replicas[r].sessions_assigned;
    log.record(when, FleetEventType::kAdmit, std::uint32_t(i),
               std::int32_t(r));
    c.engine = std::make_unique<SessionEngine>(config.clients[i].session,
                                               config.clients[i].motion,
                                               /*session_start=*/when);
    if (c.engine->done()) {  // degenerate zero-chunk config
      c.state = ClientState::kDone;
      --load[r];
      --remaining;
      return;
    }
    if (c.engine->has_startup_download()) {
      c.state = ClientState::kRequested;
      c.t_next = when + config.rtt_seconds;
      c.issued_at = when;
      c.flow_bytes = c.engine->startup_bytes();
      c.startup_flow = true;
    } else {
      c.state = ClientState::kIdle;
      c.t_next = when;
    }
    due_index.update(i, now);
  };

  /// Parks client i in the FIFO waiting room at `now` until its
  /// max_wait_seconds deadline (callers check the room is enabled).
  const auto enqueue_waiting = [&](std::size_t i) {
    ClientRuntime& c = clients[i];
    c.state = ClientState::kWaiting;
    c.waiting_since = now;
    c.t_next = std::isfinite(config.max_wait_seconds)
                   ? now + config.max_wait_seconds
                   : kInf;
    waiting_room.push_back(i);
    due_index.update(i, now);
    log.record(now, FleetEventType::kWaitEnqueue, std::uint32_t(i));
    result.queue_depth_peak =
        std::max(result.queue_depth_peak, waiting_room.size());
  };

  // FIFO admission: as long as a replica has a free slot, the head of the
  // waiting room takes it (least-loaded up replica, lowest index on ties).
  // Failed-over sessions queue behind fresh arrivals on equal terms; their
  // recorded wait_seconds stays the original admission wait.
  const auto drain_waiting_room = [&]() {
    while (!waiting_room.empty()) {
      const std::size_t r = route_arrival(
          load, config.max_sessions_per_replica, down, eff_degraded);
      if (r == kNoReplica) break;
      const std::size_t i = waiting_room.front();
      waiting_room.pop_front();
      const double waited = now - clients[i].waiting_since;
      if (!clients[i].engine) result.wait_seconds[i] = waited;
      log.record(now, FleetEventType::kWaitPromote, std::uint32_t(i),
                 std::int32_t(r), waited);
      admit_client(i, r, now);
    }
  };

  /// Crash-window entry: unbind every session on r, abort its flows, and
  /// try to re-admit each session elsewhere (waiting room as fallback).
  /// Client-index order keeps the cascade deterministic.
  const auto crash_replica = [&](std::size_t r) {
    down[r] = 1;
    down_since[r] = now;
    ++result.replicas[r].crashes;
    log.record(now, FleetEventType::kReplicaDown, kNoSession, std::int32_t(r),
               config.faults.crash_restart_seconds);
    for (std::size_t i = 0; i < n_clients; ++i) {
      ClientRuntime& c = clients[i];
      if (c.replica != r) continue;
      if (c.state != ClientState::kIdle &&
          c.state != ClientState::kRequested &&
          c.state != ClientState::kDownloading) {
        continue;
      }
      log.record(now, FleetEventType::kFailoverStart, std::uint32_t(i),
                 std::int32_t(r));
      c.failover_since = now;
      c.redo_chunk = false;
      c.redo_startup = false;
      if (c.state == ClientState::kDownloading) {
        // The partial download is garbage to the client: discard and redo
        // the whole chunk on the new replica.
        sync_link(r);
        const double discarded = links[r].abort_flow(c.flow_id);
        refresh_due(r);
        result.bytes_discarded += discarded;
        log.record(now, FleetEventType::kDownloadAbort, std::uint32_t(i),
                   std::int32_t(r), discarded);
        c.redo_chunk = !c.startup_flow;
        c.redo_startup = c.startup_flow;
        c.startup_flow = false;
      } else if (c.state == ClientState::kRequested) {
        if (c.startup_flow) {
          c.redo_startup = true;
          c.startup_flow = false;
        } else {
          c.redo_chunk = true;
          if (c.engine->config().kind != SystemKind::kVivo) {
            // This waiter departs its coalesced encode; the encode itself
            // keeps running (single-flight work is not cancellable).
            queue.abandon(cache_key(c.engine->config().video, c.plan.index,
                                    c.plan.density_ratio,
                                    config.density_buckets));
          }
        }
      } else {  // kIdle: resume the paused request once re-admitted
        c.resume_at = c.t_next;
      }
      --load[r];
      c.replica = kNoReplica;
      const std::size_t r2 = route_arrival(
          load, config.max_sessions_per_replica, down, eff_degraded);
      if (r2 != kNoReplica) {
        admit_client(i, r2, now);
      } else if (config.max_wait_seconds > 0.0) {
        enqueue_waiting(i);
      } else {
        fail_session(i, now);
      }
    }
  };

  /// Applies every fault-state flip due at `now` by diffing the schedule
  /// against tracked state — idempotent, so boundaries landing exactly on
  /// other events are safe — and recomputes fault_due. Runs in phase 2b of
  /// the first iteration and whenever `now` reaches fault_due; in between,
  /// the diff would find nothing to flip.
  const auto apply_fault_transitions = [&]() {
    fault_due = faults.next_transition_after(now);
    for (std::size_t r = 0; r < n_replicas; ++r) {
      const bool want_down = faults.replica_down(r, now);
      if (want_down && !down[r]) {
        crash_replica(r);
      } else if (!want_down && down[r]) {
        down[r] = 0;
        result.replicas[r].down_seconds += now - down_since[r];
        log.record(now, FleetEventType::kReplicaUp, kNoSession,
                   std::int32_t(r));
      }
      const double want_scale = faults.uplink_scale(r, now);
      if (want_scale != link_scale[r]) {
        sync_link(r);
        links[r].set_rate_scale(want_scale);
        refresh_due(r);
        log.record(now,
                   want_scale < 1.0 ? FleetEventType::kUplinkDegrade
                                    : FleetEventType::kUplinkRestore,
                   kNoSession, std::int32_t(r), want_scale);
        link_scale[r] = want_scale;
      }
      const bool want_degraded = faults.replica_degraded(r, now);
      if (want_degraded != (sched_degraded[r] != 0)) {
        sched_degraded[r] = want_degraded ? 1 : 0;
        log.record(now,
                   want_degraded ? FleetEventType::kReplicaDegraded
                                 : FleetEventType::kReplicaRecovered,
                   kNoSession, std::int32_t(r));
        refresh_degraded(r, now);
      }
      if (breaker_open[r] && breaker_until[r] <= now) {
        // Half-open reset: the failure streak starts over.
        breaker_open[r] = 0;
        breaker_until[r] = kInf;
        consec_encode_failures[r] = 0;
        log.record(now, FleetEventType::kBreakerReset, kNoSession,
                   std::int32_t(r));
        refresh_degraded(r, now);
      }
      if (breaker_open[r]) fault_due = std::min(fault_due, breaker_until[r]);
    }
  };

  /// Circuit breaker: consecutive *attributed* encode failures mark the
  /// starter's replica degraded until the breaker resets. Attribution is by
  /// the replica of the request that started the encode — the fleet-level
  /// approximation of "this replica's encoder pool is sick".
  const auto apply_encode_outcomes =
      [&](const std::vector<EncodeQueue::Completion>& outcomes) {
        const std::uint32_t threshold =
            config.recovery.breaker_failure_threshold;
        for (const EncodeQueue::Completion& done : outcomes) {
          if (done.replica < 0 ||
              std::size_t(done.replica) >= n_replicas) {
            continue;
          }
          const auto r = std::size_t(done.replica);
          if (done.success) {
            consec_encode_failures[r] = 0;
            continue;
          }
          if (threshold == 0) continue;
          if (++consec_encode_failures[r] >= threshold && !breaker_open[r]) {
            breaker_open[r] = 1;
            breaker_until[r] =
                done.time + config.recovery.breaker_reset_seconds;
            fault_due = std::min(fault_due, breaker_until[r]);
            ++result.replicas[r].breaker_trips;
            log.record(done.time, FleetEventType::kBreakerTrip, kNoSession,
                       std::int32_t(r), double(consec_encode_failures[r]));
            refresh_degraded(r, done.time);
          }
        }
      };

  // ~3 events per chunk (request, flow start, completion); anything far past
  // that means the timeline stopped making progress. Faults add recovery
  // round-trips (retries, failovers, boundary wakeups), so an armed
  // schedule gets proportional headroom.
  std::size_t max_events = 1000 + 16 * expected_chunks;
  if (faults_armed) {
    max_events += 1000 + 16 * expected_chunks +
                  64 * faults.transition_count();
  }
  for (std::size_t iter = 0; remaining > 0 && iter < max_events; ++iter) {
    // Next event: a client transition (arrival, request release, waiting-
    // room timeout), an encode completion, the cached fault boundary (window
    // edge / breaker expiry), or the earliest cached flow completion.
    const double t_event =
        std::min({due_index.next_time(), queue.next_ready(), fault_due,
                  link_due.next_time()});
    if (!(t_event < kInf)) break;  // stuck (e.g. an all-zero uplink trace)
    now = t_event;

    // 1. Drain the uplinks whose completion is due to the event time;
    // settle completed chunks. Settling link r re-files only its own leaf,
    // so collecting the due links first visits the same links in the same
    // ascending order as a scan would.
    link_due.collect(now, due_links);
    for (const std::size_t r : due_links) {
      const std::vector<SharedLink::Completion>& completions =
          links[r].advance(link_clock[r], now);
      link_clock[r] = now;
      refresh_due(r);
      for (const SharedLink::Completion& done : completions) {
        const auto i = std::size_t(done.owner);
        if (i >= n_clients || clients[i].state != ClientState::kDownloading ||
            clients[i].replica != r || clients[i].flow_id != done.id) {
          throw std::logic_error(
              "run_fleet: uplink completed a flow no client owns");
        }
        ClientRuntime& c = clients[i];
        log.record(done.time, FleetEventType::kDownloadFinish,
                   std::uint32_t(i), std::int32_t(r), c.flow_bytes);
        if (c.startup_flow) {
          c.startup_flow = false;
          c.state = ClientState::kIdle;
          c.t_next = done.time;
          due_index.update(i, now);
          continue;
        }
        const double next_request =
            c.engine->complete_chunk(c.plan, c.issued_at, done.time);
        // Timeline milestones derived from the chunk the engine just
        // settled: rebuffer interval, quality switch, session end.
        if (const ChunkRecord* rec = c.engine->last_chunk()) {
          if (rec->stall_seconds > 0.0) {
            log.record(done.time, FleetEventType::kRebufferStart,
                       std::uint32_t(i), std::int32_t(r),
                       rec->stall_seconds);
            log.record(done.time + rec->stall_seconds,
                       FleetEventType::kRebufferEnd, std::uint32_t(i),
                       std::int32_t(r));
          }
          if (c.engine->quality_switches() > c.switches_seen) {
            c.switches_seen = c.engine->quality_switches();
            log.record(done.time, FleetEventType::kQualitySwitch,
                       std::uint32_t(i), std::int32_t(r), rec->quality);
          }
        }
        if (c.engine->done()) {
          log.record(done.time, FleetEventType::kSessionDone,
                     std::uint32_t(i), std::int32_t(r));
          c.state = ClientState::kDone;
          --load[c.replica];
          --remaining;
        } else {
          c.state = ClientState::kIdle;
          c.t_next = next_request;
          due_index.update(i, now);
        }
      }
    }
    // Phases 3, 5, 7 and 8 visit only the clients due now, in ascending
    // index like a full scan would. Everything that re-times a client
    // outside that set re-files it, so the set stays complete.
    due_index.collect(now);

    // 2. Settle finished encode attempts: successes become cache-resident
    // now (requests from here on see hits), failures reschedule or turn
    // terminal — and feed the per-replica circuit breaker.
    const std::vector<EncodeQueue::Completion> encode_outcomes =
        queue.complete_until(now);
    if (faults_armed) apply_encode_outcomes(encode_outcomes);

    // 2b. Fault boundaries due now: crash/restart replicas (failing their
    // sessions over), re-rate uplinks, open/close degradation windows and
    // expired breakers. Runs before releases/arrivals so a replica that
    // crashes at t never accepts work stamped t, and after phase 2 so a
    // breaker tripped there with a zero reset time resets in this instant.
    // The first pass is forced: a window opening at 0 is no edge after 0.
    if (faults_armed && (iter == 0 || now >= fault_due)) {
      apply_fault_transitions();
    }

    // 3. Requests whose RTT + encode latency elapsed become uplink flows.
    // Under faults the release re-checks the artifact: a retrying encode
    // pushes the release to its new completion time, a terminally failed
    // one kills the session, an evicted one is re-requested.
    for (const std::size_t i : due_index.due()) {
      ClientRuntime& c = clients[i];
      if (c.state != ClientState::kRequested || c.t_next > now) continue;
      if (faults_armed && !c.startup_flow &&
          c.engine->config().kind != SystemKind::kVivo) {
        const EncodeCacheKey key =
            cache_key(c.engine->config().video, c.plan.index,
                      c.plan.density_ratio, config.density_buckets);
        const EncodeQueue::KeyState state = queue.key_state(key);
        if (state == EncodeQueue::KeyState::kInFlight) {
          c.t_next = queue.in_flight_ready_at(key) + config.rtt_seconds;
          continue;
        }
        if (state == EncodeQueue::KeyState::kFailed) {
          fail_session(i, now);
          continue;
        }
        if (state == EncodeQueue::KeyState::kAbsent) {
          // Completed but evicted before this release: request it again
          // (counts as a fresh miss) without re-planning the chunk.
          submit_request(i, /*fresh=*/false);
          continue;
        }
      }
      sync_link(c.replica);
      c.flow_id = links[c.replica].start_flow(
          c.flow_bytes, &config.clients[i].downlink, i);
      refresh_due(c.replica);
      log.record(now, FleetEventType::kDownloadStart, std::uint32_t(i),
                 std::int32_t(c.replica), c.flow_bytes);
      c.state = ClientState::kDownloading;
      ReplicaStats& stats = result.replicas[c.replica];
      stats.peak_concurrent_flows = std::max(stats.peak_concurrent_flows,
                                             links[c.replica].active_flows());
    }

    // 4. Sessions that completed in step 1 freed admission slots: promote
    // waiting-room clients before new arrivals are considered (FIFO).
    drain_waiting_room();

    // 5. Arrivals: admission control + least-loaded routing. When every
    // replica is at the cap the arrival queues (or, with the waiting room
    // disabled, is rejected on the spot).
    for (const std::size_t i : due_index.due()) {
      ClientRuntime& c = clients[i];
      if (c.state != ClientState::kPending || c.t_next > now) continue;
      const std::size_t r = route_arrival(
          load, config.max_sessions_per_replica, down, eff_degraded);
      if (r == kNoReplica) {
        if (config.max_wait_seconds > 0.0) {
          enqueue_waiting(i);
        } else {
          c.state = ClientState::kRejected;
          log.record(now, FleetEventType::kReject, std::uint32_t(i));
          ++result.rejected;
          --remaining;
        }
        continue;
      }
      admit_client(i, r, now);
    }

    // 6. A degenerate (zero-chunk) arrival in step 5 may have freed its slot
    // right back; give it to the waiting room before timeouts fire.
    drain_waiting_room();

    // 7. Waiting-room timeouts. Fresh arrivals convert to rejections; a
    // failed-over session that cannot find capacity within its deadline is
    // a session failure. Runs after the admission drains, so an admission
    // at exactly the deadline wins.
    for (const std::size_t i : due_index.due()) {
      ClientRuntime& c = clients[i];
      if (c.state != ClientState::kWaiting || c.t_next > now) continue;
      std::erase(waiting_room, i);
      const double waited = now - c.waiting_since;
      log.record(now, FleetEventType::kWaitTimeout, std::uint32_t(i),
                 /*replica=*/-1, waited);
      if (c.engine) {
        fail_session(i, now);
        continue;
      }
      c.state = ClientState::kRejected;
      result.wait_seconds[i] = waited;
      ++result.rejected;
      ++result.timed_out;
      --remaining;
    }

    // 8. Idle clients at their request time plan the next chunk: ABR against
    // the fair share they would get, then the single-flight encode queue
    // decides when the artifact is ready — a resident artifact releases
    // after one RTT, a fresh miss starts an encode, and a concurrent miss of
    // an in-flight key coalesces onto that encode and waits for it.
    for (const std::size_t i : due_index.due()) {
      ClientRuntime& c = clients[i];
      if (c.state != ClientState::kIdle || c.t_next > now) continue;
      c.plan = c.engine->plan_chunk(now, links[c.replica].share_mbps(now));
      const SessionConfig& session = c.engine->config();
      // Graceful degradation: on a degraded replica, trade one density
      // bucket for not paying the slowed-down encode at full freight.
      // SR-capable ladders only — raw has no ladder to walk and ViVo plans
      // per-viewport.
      if (faults_armed && config.recovery.degrade_density_when_degraded &&
          eff_degraded[c.replica] &&
          (session.kind == SystemKind::kVolutContinuous ||
           session.kind == SystemKind::kVolutDiscrete ||
           session.kind == SystemKind::kYuzuSr)) {
        const std::uint32_t bucket =
            density_bucket(c.plan.density_ratio, config.density_buckets);
        if (bucket > 1) {
          const double ratio =
              double(bucket - 1) / double(config.density_buckets);
          c.plan = c.engine->at_density(c.plan, ratio);
          log.record(now, FleetEventType::kDensityDownshift, std::uint32_t(i),
                     std::int32_t(c.replica), ratio);
        }
      }
      submit_request(i, /*fresh=*/true);
    }
    due_index.flush();
  }
  // Drain every link to the end of the timeline, so the drain accounting of
  // a truncated run covers all of it.
  for (std::size_t r = 0; r < n_replicas; ++r) {
    links[r].advance(link_clock[r], now);
  }
  result.sim_seconds = now;
  for (const ClientRuntime& c : clients) {
    if (c.state != ClientState::kDone && c.state != ClientState::kRejected &&
        c.state != ClientState::kFailed) {
      ++result.unfinished_sessions;
    }
  }
  result.completed = result.unfinished_sessions == 0;

  // Close out fault exposure still open when the timeline ended.
  for (std::size_t r = 0; r < n_replicas; ++r) {
    if (down[r]) result.replicas[r].down_seconds += now - down_since[r];
    if (eff_degraded[r]) {
      result.replicas[r].degraded_seconds += now - degraded_since[r];
    }
  }

  // ------------------------------------------------------------- rollups
  std::vector<double> qoes, norms, stalls, waits;
  qoes.reserve(n_clients);
  norms.reserve(n_clients);
  stalls.reserve(n_clients);
  waits.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i) {
    if (!clients[i].engine) continue;
    waits.push_back(result.wait_seconds[i]);
    result.sessions[i] = clients[i].engine->finish();
    const SessionResult& s = result.sessions[i];
    qoes.push_back(s.qoe);
    norms.push_back(s.normalized_qoe());
    stalls.push_back(s.stall_seconds);
    result.total_bytes += s.total_bytes;
    result.total_stall_seconds += s.stall_seconds;
    result.played_seconds += double(s.chunks.size()) *
                             config.clients[i].session.chunk_seconds;
  }
  result.qoe = summarize(qoes);
  result.normalized_qoe = summarize(norms);
  result.stall_seconds = summarize(stalls);
  const double watched = result.total_stall_seconds + result.played_seconds;
  result.stall_rate = watched > 0.0 ? result.total_stall_seconds / watched
                                    : 0.0;
  result.wait_time = summarize(waits);
  result.failover_time = summarize(failover_latencies);
  result.cache = queue.cache_stats();
  result.cache_shards.reserve(queue.shard_count());
  for (std::size_t s = 0; s < queue.shard_count(); ++s) {
    result.cache_shards.push_back(queue.shard(s).stats());
  }
  result.encode_queue = queue.stats();
  for (std::size_t r = 0; r < n_replicas; ++r) {
    ReplicaStats& stats = result.replicas[r];
    stats.bytes_completed = links[r].bytes_completed();
    stats.bits_drained = links[r].bits_drained();
    stats.link_walks = links[r].walks();
    stats.uplink_trace_wraps = config.replica_uplinks[r].wrap_count(now);
  }

  // Fault and admission totals are read off the timeline, which records
  // each of these facts exactly once (type totals survive ring wrap).
  const auto total = [&log](FleetEventType type) {
    return std::size_t(log.type_count(type));
  };
  result.admitted = total(FleetEventType::kAdmit);
  result.failovers = total(FleetEventType::kFailoverComplete);
  result.failed_sessions = total(FleetEventType::kSessionFail);
  result.downloads_aborted = total(FleetEventType::kDownloadAbort);
  result.degraded_chunks = total(FleetEventType::kDensityDownshift);

  queue.set_event_log(nullptr);  // log is about to move into the result
  result.timeline_events = log.recorded();
  result.events = std::move(log);

  measure_sr_samples(sr_work, config.sr_lut, result.sr_samples, pool);
  return result;
}

std::vector<FleetClientConfig> make_mixed_fleet(
    std::size_t n, double arrival_spacing_seconds, std::size_t max_chunks,
    double video_scale) {
  static constexpr VideoId kVideos[] = {VideoId::kDress, VideoId::kLoot,
                                        VideoId::kHaggle, VideoId::kLab};
  static constexpr SystemKind kKinds[] = {
      SystemKind::kVolutContinuous, SystemKind::kVolutDiscrete,
      SystemKind::kYuzuSr, SystemKind::kRaw};
  std::vector<FleetClientConfig> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    FleetClientConfig& client = out[i];
    client.arrival_seconds = double(i) * arrival_spacing_seconds;
    client.session.kind = kKinds[i % 4];
    // Groups of four neighbors share one video (same id, scale and content
    // seed), which is what lets the encode cache deduplicate their fetches.
    VideoSpec spec = VideoSpec::by_id(kVideos[(i / 4) % 4], video_scale);
    spec.frame_count = std::max<std::size_t>(
        spec.frame_count, max_chunks * std::size_t(spec.fps + 0.5));
    spec.loops = 1;
    client.session.video = spec;
    client.session.max_chunks = max_chunks;
  }
  return out;
}

}  // namespace volut

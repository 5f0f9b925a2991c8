#include "src/obs/event_log.h"

#include <cstdio>

namespace volut {

const char* fleet_event_name(FleetEventType type) {
  switch (type) {
    case FleetEventType::kAdmit: return "admit";
    case FleetEventType::kWaitEnqueue: return "wait_enqueue";
    case FleetEventType::kWaitPromote: return "wait_promote";
    case FleetEventType::kWaitTimeout: return "wait_timeout";
    case FleetEventType::kReject: return "reject";
    case FleetEventType::kChunkRequest: return "chunk_request";
    case FleetEventType::kEncodeStart: return "encode_start";
    case FleetEventType::kEncodeCoalesce: return "encode_coalesce";
    case FleetEventType::kEncodeComplete: return "encode_complete";
    case FleetEventType::kCacheHit: return "cache_hit";
    case FleetEventType::kCacheMiss: return "cache_miss";
    case FleetEventType::kCacheEvict: return "cache_evict";
    case FleetEventType::kDownloadStart: return "download_start";
    case FleetEventType::kDownloadFinish: return "download_finish";
    case FleetEventType::kRebufferStart: return "rebuffer_start";
    case FleetEventType::kRebufferEnd: return "rebuffer_end";
    case FleetEventType::kQualitySwitch: return "quality_switch";
    case FleetEventType::kSessionDone: return "session_done";
    case FleetEventType::kReplicaDown: return "replica_down";
    case FleetEventType::kReplicaUp: return "replica_up";
    case FleetEventType::kReplicaDegraded: return "replica_degraded";
    case FleetEventType::kReplicaRecovered: return "replica_recovered";
    case FleetEventType::kUplinkDegrade: return "uplink_degrade";
    case FleetEventType::kUplinkRestore: return "uplink_restore";
    case FleetEventType::kDownloadAbort: return "download_abort";
    case FleetEventType::kFailoverStart: return "failover_start";
    case FleetEventType::kFailoverComplete: return "failover_complete";
    case FleetEventType::kEncodeFail: return "encode_fail";
    case FleetEventType::kEncodeRetry: return "encode_retry";
    case FleetEventType::kEncodeGiveUp: return "encode_give_up";
    case FleetEventType::kEncodeAbandon: return "encode_abandon";
    case FleetEventType::kSessionFail: return "session_fail";
    case FleetEventType::kDensityDownshift: return "density_downshift";
    case FleetEventType::kBreakerTrip: return "breaker_trip";
    case FleetEventType::kBreakerReset: return "breaker_reset";
  }
  return "unknown";
}

void EventLog::record(double time, FleetEventType type, std::uint32_t session,
                      std::int32_t replica, double value) {
  counts_[static_cast<std::size_t>(type)]++;
  if (capacity_ > 0) {
    const FleetEvent event{time, type, session, replica, value};
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[recorded_ % capacity_] = event;
    }
  }
  ++recorded_;
}

std::vector<FleetEvent> EventLog::events() const {
  std::vector<FleetEvent> out;
  out.reserve(ring_.size());
  if (capacity_ == 0 || recorded_ <= ring_.size()) {
    out = ring_;
  } else {
    // Ring has wrapped: the oldest retained event sits at the write cursor.
    const std::size_t head = recorded_ % capacity_;
    out.insert(out.end(), ring_.begin() + head, ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + head);
  }
  return out;
}

std::string EventLog::json_for(const std::vector<FleetEvent>& events) const {
  std::string out = "{\n  \"schema\": \"volut-fleet-events-v1\",\n";
  out += "  \"recorded\": " + std::to_string(recorded_) + ",\n";
  out += "  \"dropped\": " + std::to_string(dropped()) + ",\n";
  out += "  \"counts\": {";
  for (std::size_t t = 0; t < kFleetEventTypeCount; ++t) {
    out += t == 0 ? "" : ", ";
    out += "\"";
    out += fleet_event_name(static_cast<FleetEventType>(t));
    out += "\": " + std::to_string(counts_[t]);
  }
  out += "},\n";
  out += "  \"events\": [";
  bool first = true;
  char buf[160];
  for (const FleetEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "    {\"t\": %.17g, \"type\": \"%s\", \"session\": %lld, "
                  "\"replica\": %d, \"value\": %.17g}",
                  e.time, fleet_event_name(e.type),
                  e.session == kNoSession
                      ? -1ll
                      : static_cast<long long>(e.session),
                  e.replica, e.value);
    out += buf;
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string EventLog::to_json() const { return json_for(events()); }

std::string EventLog::session_json(std::uint32_t session) const {
  std::vector<FleetEvent> filtered;
  for (const FleetEvent& e : events()) {
    if (e.session == session) filtered.push_back(e);
  }
  return json_for(filtered);
}

bool operator==(const EventLog& a, const EventLog& b) {
  return a.recorded_ == b.recorded_ && a.counts_ == b.counts_ &&
         a.events() == b.events();
}

}  // namespace volut

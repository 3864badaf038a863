#include "mobieyes/net/network.h"

#include "mobieyes/obs/lifecycle.h"
#include "mobieyes/obs/metrics_registry.h"

namespace mobieyes::net {

NetworkStats& NetworkStats::operator+=(const NetworkStats& other) {
  uplink_messages += other.uplink_messages;
  downlink_messages += other.downlink_messages;
  broadcast_messages += other.broadcast_messages;
  uplink_bytes += other.uplink_bytes;
  downlink_bytes += other.downlink_bytes;
  broadcast_receptions += other.broadcast_receptions;
  undeliverable_downlinks += other.undeliverable_downlinks;
  for (size_t k = 0; k < kNumUndeliverableReasons; ++k) {
    undeliverable_by_reason[k] += other.undeliverable_by_reason[k];
  }
  uplink_dropped += other.uplink_dropped;
  downlink_dropped += other.downlink_dropped;
  broadcast_dropped += other.broadcast_dropped;
  delayed_messages += other.delayed_messages;
  duplicated_messages += other.duplicated_messages;
  disconnect_events += other.disconnect_events;
  inter_shard_messages += other.inter_shard_messages;
  inter_shard_bytes += other.inter_shard_bytes;
  inter_shard_handoffs += other.inter_shard_handoffs;
  for (size_t k = 0; k < kNumMessageTypes; ++k) {
    messages_by_type[k] += other.messages_by_type[k];
    dropped_by_type[k] += other.dropped_by_type[k];
  }
  for (const auto& [oid, bytes] : other.tx_bytes_per_object) {
    tx_bytes_per_object[oid] += bytes;
  }
  for (const auto& [oid, bytes] : other.rx_bytes_per_object) {
    rx_bytes_per_object[oid] += bytes;
  }
  return *this;
}

void WirelessNetwork::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = WireMetrics{};
    metrics_attached_ = false;
    return;
  }
  static constexpr const char* kDirectionNames[3] = {"uplink", "downlink",
                                                     "broadcast"};
  // Only wireless types get eager counters: server-internal types (shard
  // handoffs) never reach the medium, and registering their zero counters
  // would perturb the deterministic metrics export by shard count.
  for (size_t d = 0; d < 3; ++d) {
    for (size_t t = 0; t < kNumWirelessMessageTypes; ++t) {
      metrics_.msgs[d][t] = registry->GetCounter(
          std::string("net.msgs.") + kDirectionNames[d] + "." +
          MessageTypeName(static_cast<MessageType>(t)));
    }
  }
  metrics_.bytes = registry->GetHistogram(
      "net.message_bytes", obs::ExponentialBounds(32.0, 2.0, 12));
  metrics_.broadcast_receptions =
      registry->GetCounter("net.broadcast_receptions");
  metrics_.undeliverable = registry->GetCounter("net.undeliverable_downlinks");
  metrics_attached_ = true;
}

std::string NetworkStatsJson(const NetworkStats& stats) {
  auto field = [](const char* name, uint64_t value) {
    std::string out = "\"";
    out += name;
    out += "\": ";
    out += std::to_string(value);
    return out;
  };
  std::string json = "{";
  json += field("uplink_messages", stats.uplink_messages) + ", ";
  json += field("downlink_messages", stats.downlink_messages) + ", ";
  json += field("broadcast_messages", stats.broadcast_messages) + ", ";
  json += field("uplink_bytes", stats.uplink_bytes) + ", ";
  json += field("downlink_bytes", stats.downlink_bytes) + ", ";
  json += field("broadcast_receptions", stats.broadcast_receptions) + ", ";
  json += field("undeliverable_downlinks", stats.undeliverable_downlinks) +
          ", ";
  json += field("uplink_dropped", stats.uplink_dropped) + ", ";
  json += field("downlink_dropped", stats.downlink_dropped) + ", ";
  json += field("broadcast_dropped", stats.broadcast_dropped) + ", ";
  json += field("delayed_messages", stats.delayed_messages) + ", ";
  json += field("duplicated_messages", stats.duplicated_messages) + ", ";
  json += field("disconnect_events", stats.disconnect_events) + ", ";
  using Reason = NetworkStats::UndeliverableReason;
  auto reason = [&](Reason which) {
    return stats.undeliverable_by_reason[static_cast<size_t>(which)];
  };
  json += "\"undeliverable_by_reason\": {";
  json += field("no_handler", reason(Reason::kNoHandler)) + ", ";
  json += field("receiver_disconnected",
                reason(Reason::kReceiverDisconnected)) + ", ";
  json += field("server_down", reason(Reason::kServerDown));
  json += "}}";
  return json;
}

void WirelessNetwork::RecordMetrics(Direction direction,
                                    const Message& message, size_t bytes) {
  // Server-internal types have no eager counter (see AttachMetrics); they
  // never reach the medium, but guard anyway rather than chase a null.
  if (static_cast<size_t>(message.type) >= kNumWirelessMessageTypes) return;
  metrics_.msgs[static_cast<size_t>(direction)]
              [static_cast<size_t>(message.type)]
                  ->Increment();
  metrics_.bytes->Observe(static_cast<double>(bytes));
}

void WirelessNetwork::SendUplink(ObjectId from, Message message) {
  if (observer_) observer_(Direction::kUplink, from, message);
  size_t bytes = WireSizeBytes(message);
  ++stats_.uplink_messages;
  stats_.uplink_bytes += bytes;
  ++stats_.messages_by_type[static_cast<size_t>(message.type)];
  if (metrics_attached_) RecordMetrics(Direction::kUplink, message, bytes);
  if (lifecycle_ != nullptr) {
    // A retry while the round is open keeps the original stamp (counted as
    // a restamp), so the measured round trip starts at the first attempt
    // that reached the medium.
    lifecycle_->Stamp(obs::LifecycleTracker::kUplinkRoundTrip, from);
  }
  if (track_per_object_bytes_) {
    stats_.tx_bytes_per_object[from] += bytes;
  }
  if (server_handler_) server_handler_(from, message);
}

bool WirelessNetwork::SendDownlinkTo(ObjectId to, Message message) {
  if (observer_) observer_(Direction::kDownlink, to, message);
  size_t bytes = WireSizeBytes(message);
  ++stats_.downlink_messages;
  stats_.downlink_bytes += bytes;
  ++stats_.messages_by_type[static_cast<size_t>(message.type)];
  if (metrics_attached_) RecordMetrics(Direction::kDownlink, message, bytes);
  if (lifecycle_ != nullptr) {
    // The server addressing the object closes its open uplink round; a
    // downlink with no open round is a no-op here, not an error.
    lifecycle_->ResolveIfPending(obs::LifecycleTracker::kUplinkRoundTrip, to);
  }
  if (track_per_object_bytes_) {
    stats_.rx_bytes_per_object[to] += bytes;
  }
  const ClientHandler* handler = FindClient(to);
  if (handler == nullptr) {
    // The transmission happened (counted above) but nobody decodes it: an
    // observable routing failure rather than a silent no-op.
    ++stats_.undeliverable_downlinks;
    ++stats_.undeliverable_by_reason[static_cast<size_t>(
        NetworkStats::UndeliverableReason::kNoHandler)];
    if (metrics_attached_) metrics_.undeliverable->Increment();
    return false;
  }
  (*handler)(message);
  return true;
}

void WirelessNetwork::Broadcast(const BaseStation& station,
                                const Message& message) {
  if (observer_) observer_(Direction::kBroadcast, station.id, message);
  size_t bytes = WireSizeBytes(message);
  ++stats_.downlink_messages;
  ++stats_.broadcast_messages;
  stats_.downlink_bytes += bytes;
  ++stats_.messages_by_type[static_cast<size_t>(message.type)];
  if (metrics_attached_) RecordMetrics(Direction::kBroadcast, message, bytes);
  if (!coverage_query_) return;
  // Collect receivers first: handlers may re-enter the network (e.g. an
  // object replying with an uplink), and must not observe a partially
  // delivered broadcast. The list lives in a depth-indexed pool so nested
  // broadcasts get their own vector without per-call allocation.
  if (broadcast_depth_ == receiver_pool_.size()) receiver_pool_.emplace_back();
  std::vector<ObjectId>& receivers = receiver_pool_[broadcast_depth_];
  ++broadcast_depth_;
  receivers.clear();
  coverage_query_(station.coverage,
                  [&receivers](ObjectId oid) { receivers.push_back(oid); });
  stats_.broadcast_receptions += receivers.size();
  if (metrics_attached_) {
    metrics_.broadcast_receptions->Increment(receivers.size());
  }
  if (track_per_object_bytes_) {
    for (ObjectId oid : receivers) {
      stats_.rx_bytes_per_object[oid] += bytes;
    }
  }
  for (ObjectId oid : receivers) {
    if (const ClientHandler* handler = FindClient(oid)) (*handler)(message);
  }
  --broadcast_depth_;
}

}  // namespace mobieyes::net

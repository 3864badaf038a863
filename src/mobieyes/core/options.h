#ifndef MOBIEYES_CORE_OPTIONS_H_
#define MOBIEYES_CORE_OPTIONS_H_

#include "mobieyes/common/units.h"

namespace mobieyes::core {

// How queries reach objects that changed their grid cell (paper §3.5).
enum class PropagationMode {
  // Eager: every object reports cell crossings; the server answers with the
  // queries newly covering the object's cell.
  kEager,
  // Lazy: non-focal objects stay silent on cell crossings and pick up
  // nearby queries from expanded velocity-change / query-update broadcasts.
  kLazy,
};

// Server-side sharding (DESIGN.md §10). num_shards == 1 is the monolith:
// one shard owning the whole grid, no inter-shard traffic. The epoch-0
// partition gives shard k the k-th contiguous band of grid rows, which
// preserves locality (a monitoring region touches few shards).
struct ShardingOptions {
  int num_shards = 1;

  // Online rebalancing (DESIGN.md §15): every rebalance_stride steps the
  // router reads the step-synchronous per-cell load window and, when the
  // hottest shard's load exceeds rebalance_threshold times the mean, moves
  // up to rebalance_max_moves cells to colder shards, advancing the
  // partition epoch. 0 (the default) disables rebalancing — the partition
  // stays frozen at its epoch-0 seed and every code path is byte-identical
  // to the pre-rebalancing build.
  int rebalance_stride = 0;
  double rebalance_threshold = 1.2;
  int rebalance_max_moves = 8;

  bool rebalance_enabled() const {
    return rebalance_stride > 0 && num_shards > 1;
  }
};

// Toggles for the protocol variant run by both server and clients. Server
// and clients of one deployment must share the same options.
struct MobiEyesOptions {
  PropagationMode propagation = PropagationMode::kEager;

  // Safe-period optimization (§4.2): objects skip evaluating queries whose
  // spatial region provably cannot reach them yet.
  bool enable_safe_period = false;

  // Query grouping (§4.1): groupable queries share broadcasts and result
  // reports carry per-group bitmaps.
  bool enable_query_grouping = true;

  // Dead-reckoning threshold Δ (miles): a focal object relays its velocity
  // vector when its true position drifts more than Δ from where the last
  // relayed vector predicts it to be (§3.4).
  Miles dead_reckoning_threshold = 0.2;

  // --- Protocol hardening (DESIGN.md §8) ------------------------------------
  // Defenses against lossy links (net::FaultyNetwork). All off by default:
  // the base protocol then matches the paper exactly and pays nothing for
  // the hooks.

  // Correctness-critical uplinks (velocity/cell-change/result reports) carry
  // a sequence number, are acknowledged by the server, and are retransmitted
  // with exponential backoff until acked or the retry budget is spent.
  // Retransmissions regenerate their payload from current client state, so
  // a late retry never reintroduces stale data.
  bool enable_reliable_uplink = false;
  int uplink_max_retries = 4;
  // Ticks before the first retransmit; doubles after each retry.
  int uplink_retry_backoff_ticks = 1;

  // Soft-state leases: the server periodically re-broadcasts each query's
  // monitoring-region state (QueryUpdateBroadcast + FocalNotification) every
  // lease_duration seconds, recovering clients that missed the original
  // install or update; clients drop LQT entries not refreshed within twice
  // the lease. 0 disables leases.
  Seconds lease_duration = 0.0;

  // Periodic reconciliation: every reconcile_period_ticks (staggered by
  // object id) a client uplinks its LQT contents and result membership; the
  // server diffs them against the RQI and repairs both sides. This is what
  // lets an object reconnecting after a disconnect rebuild its LQT.
  // 0 disables reconciliation.
  int reconcile_period_ticks = 0;

  // Grid partitioning of the server state across shards (DESIGN.md §10).
  // Clients never see the shard layout; the wire protocol is unchanged.
  ShardingOptions sharding;
};

// Canonical hardened configuration used by the fault-tolerance evaluation:
// reliable uplinks, leases spanning `lease_ticks` time steps of `time_step`
// seconds, and reconciliation at half the lease period.
inline MobiEyesOptions HardenedOptions(MobiEyesOptions base, Seconds time_step,
                                       int lease_ticks = 16) {
  base.enable_reliable_uplink = true;
  base.lease_duration = lease_ticks * time_step;
  base.reconcile_period_ticks = lease_ticks / 2 > 0 ? lease_ticks / 2 : 1;
  return base;
}

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_OPTIONS_H_

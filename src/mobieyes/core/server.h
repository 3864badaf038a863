#ifndef MOBIEYES_CORE_SERVER_H_
#define MOBIEYES_CORE_SERVER_H_

#include <unordered_set>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/status.h"
#include "mobieyes/common/thread_pool.h"
#include "mobieyes/common/units.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/rqi.h"
#include "mobieyes/core/shard_router.h"
#include "mobieyes/core/snapshot.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/net/bmap.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/obs/trace_recorder.h"

namespace mobieyes::core {

// The MobiEyes server: a mediator between moving objects (paper §3). It
// tracks focal objects (FOT), hosted queries (SQT) and the reverse query
// index (RQI), and turns focal-object events into the minimal set of
// base-station broadcasts that keep the affected monitoring regions
// current. Query results are maintained differentially from the containment
// flips reported by the objects themselves.
//
// Internally the server is a ShardRouter in front of N grid-partitioned
// ServerShards (options.sharding; DESIGN.md §10). The default single shard
// is the monolith; more shards change nothing a client can observe — only
// how the server's own state and step-phase work are partitioned.
class MobiEyesServer {
 public:
  // The table-row types moved to server_shard.h with the sharding refactor;
  // aliased here so existing call sites keep compiling unchanged.
  using FotEntry = core::FotEntry;
  using SqtEntry = core::SqtEntry;

  static constexpr Seconds kNeverExpires = core::kNeverExpires;

  // `grid`, `layout`, `bmap` and `network` must outlive the server.
  MobiEyesServer(const geo::Grid& grid, const net::BaseStationLayout& layout,
                 const net::Bmap& bmap, net::WirelessNetwork& network,
                 MobiEyesOptions options)
      : router_(grid, layout, bmap, network, options) {}

  // Installs a moving query bound to `focal_oid` (paper §3.3). If the focal
  // object is not yet in the FOT its kinematics are requested over the
  // network (synchronous round trip). A finite `duration` (seconds from
  // now) makes the query self-expire on a later AdvanceTime. Returns the
  // assigned query id. The radius form installs the paper's circular
  // region; the QueryRegion form accepts any supported shape.
  Result<QueryId> InstallQuery(ObjectId focal_oid, Miles radius,
                               double filter_threshold,
                               Seconds duration = kNeverExpires);
  Result<QueryId> InstallQuery(ObjectId focal_oid,
                               const geo::QueryRegion& region,
                               double filter_threshold,
                               Seconds duration = kNeverExpires) {
    return router_.InstallQuery(focal_oid, region, filter_threshold, duration);
  }

  // Advances the server clock and removes queries whose lifetime has
  // elapsed (removal broadcasts included). Call once per time step.
  void AdvanceTime(Seconds now) { router_.AdvanceTime(now); }

  Seconds now() const { return router_.now(); }

  // Removes a query: clears server state and broadcasts the removal over
  // the query's monitoring region.
  Status RemoveQuery(QueryId qid) { return router_.RemoveQuery(qid); }

  // Network entry point for all uplink traffic; wire this to
  // WirelessNetwork::set_server_handler.
  void OnUplink(ObjectId from, const net::Message& message) {
    router_.OnUplink(from, message);
  }

  // --- Introspection (tests, oracle comparison, benches) -------------------

  // Current differentially-maintained result of a query.
  Result<std::unordered_set<ObjectId>> QueryResult(QueryId qid) const {
    return router_.QueryResult(qid);
  }

  const SqtEntry* FindQuery(QueryId qid) const {
    return router_.FindQuery(qid);
  }
  const FotEntry* FindFocal(ObjectId oid) const {
    return router_.FindFocal(oid);
  }
  size_t query_count() const { return router_.query_count(); }
  // Shard 0's RQI slice — the full index when running single-shard.
  const ReverseQueryIndex& rqi() const { return router_.shard(0).rqi(); }

  // The sharded deployment behind the facade.
  ShardRouter& router() { return router_; }
  const ShardRouter& router() const { return router_; }
  int num_shards() const { return router_.num_shards(); }

  // Accumulated wall time spent in server-side logic ("server load", §5.2).
  double load_seconds() const { return router_.load_seconds(); }
  // Wall time of the parallelizable step phase (expiry/lease scans and
  // checkpoint encoding); the shard bench's comparison quantity.
  double step_seconds() const { return router_.step_seconds(); }
  void ResetLoadTimer() { router_.ResetLoadTimer(); }

  // Scoped-span tracing of the uplink handlers; null (the default) disables
  // it. The recorder must outlive the server.
  void set_trace_recorder(obs::TraceRecorder* trace) {
    router_.set_trace_recorder(trace);
  }

  // Worker pool for the per-shard step phase; null (the default) runs the
  // shards inline. The pool must outlive the server.
  void set_thread_pool(ThreadPool* pool) { router_.set_thread_pool(pool); }

  // Per-cell heat maps, one per shard, charged to the shard owning each
  // charged cell (DESIGN.md §12). Merge the per-shard windows in shard
  // order for a layout-independent global map.
  void EnableHeatmaps(int32_t rows, int32_t cols) {
    router_.EnableHeatmaps(rows, cols);
  }
  obs::HeatMap* shard_heatmap(int k) { return router_.shard_heatmap(k); }

  // Lifecycle latency tap (install->first-result, handoff rounds); null
  // (the default) disables it. The tracker must outlive the server.
  void set_lifecycle(obs::LifecycleTracker* lifecycle) {
    router_.set_lifecycle(lifecycle);
  }

  // --- Crash recovery (DESIGN.md §9) ---------------------------------------

  // Attaches the durable store. While attached, every uplink reaching
  // OnUplink is logged write-ahead (before its handler mutates anything), so
  // checkpoint + WAL always covers the accepted traffic. Pass nullptr to
  // detach. The store must outlive the server — it is the part of the
  // mediator that survives a crash.
  void set_durable_store(Snapshot* store) { router_.set_durable_store(store); }
  Snapshot* durable_store() const { return router_.durable_store(); }

  // Serializes the full server state (FOT, SQT including monitoring regions,
  // result sets and lease deadlines, dedup rings, clock and id counter) into
  // the attached store's checkpoint image and truncates its WAL. No-op
  // without an attached store. The image layout is shard-count-independent:
  // every table is written in ascending id order.
  void Checkpoint() { router_.Checkpoint(); }

  // Rebuilds this (freshly constructed) server from `store`: decodes the
  // checkpoint image, re-derives the RQI from the SQT monitoring regions,
  // then replays the WAL through the normal uplink dispatch with every
  // network send suppressed — the originals were delivered before the
  // crash, so replay must mutate state without re-broadcasting. `replayed`
  // (optional) receives the number of WAL records applied. A store without
  // a checkpoint restores to a cold server plus whatever the WAL holds.
  // The restoring deployment may use a different shard count than the one
  // that wrote the store — entries re-home under the current shard map.
  Status Restore(const Snapshot& store, size_t* replayed = nullptr) {
    return router_.Restore(store, replayed);
  }

 private:
  ShardRouter router_;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SERVER_H_

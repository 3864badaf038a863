#ifndef MOBIEYES_CORE_SHARD_ROUTER_H_
#define MOBIEYES_CORE_SHARD_ROUTER_H_

#include <array>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/status.h"
#include "mobieyes/common/stopwatch.h"
#include "mobieyes/common/thread_pool.h"
#include "mobieyes/common/units.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/server_shard.h"
#include "mobieyes/core/snapshot.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/net/bmap.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/obs/heatmap.h"
#include "mobieyes/obs/trace_recorder.h"

namespace mobieyes::obs {
class LifecycleTracker;
}  // namespace mobieyes::obs

namespace mobieyes::core {

// Home shard per dense id (ObjectId or QueryId), indexed by the id, -1
// where absent. Lookups of any id (negative, past the end) are safe and
// answer "absent"; Insert's caller bounds the id (ShardRouter::kMaxDenseId)
// because the table grows to cover it.
class HomeTable {
 public:
  int Find(int64_t id) const {
    return id >= 0 && static_cast<uint64_t>(id) < homes_.size()
               ? homes_[static_cast<size_t>(id)]
               : -1;
  }
  bool contains(int64_t id) const { return Find(id) >= 0; }
  // Homes `id` on `home`; false (and no change) if it is already homed.
  bool Insert(int64_t id, int home) {
    const auto k = static_cast<size_t>(id);
    if (k >= homes_.size()) homes_.resize(k + 1, -1);
    if (homes_[k] >= 0) return false;
    homes_[k] = home;
    ++count_;
    return true;
  }
  // Re-homes an id that is present.
  void Set(int64_t id, int home) { homes_[static_cast<size_t>(id)] = home; }
  void Erase(int64_t id) {
    if (!contains(id)) return;
    homes_[static_cast<size_t>(id)] = -1;
    --count_;
  }
  void Clear() {
    homes_.clear();
    count_ = 0;
  }
  size_t size() const { return count_; }
  // One past the largest id the table has slots for: ascending walks run
  // over [0, id_end()).
  int64_t id_end() const { return static_cast<int64_t>(homes_.size()); }

 private:
  std::vector<int32_t> homes_;
  size_t count_ = 0;
};

// Coordinator in front of N grid-partitioned ServerShards (DESIGN.md §10).
// The router owns the protocol: it dispatches every uplink serially in
// arrival order (the in-process network is synchronous, so responses land
// mid-tick and feed the same tick's client evaluations — reordering would
// change observable behavior), resolves which shard homes each FOT/SQT
// entry, migrates ownership with explicit ShardHandoff messages when a
// focal object crosses a partition boundary, and funnels every downlink
// through the wireless network in the exact order the monolith produced.
// What parallelizes across shards is the step phase: expiry scans, lease
// scans, and checkpoint-chunk encoding, all shard-local reads.
//
// Invariant (co-location): a focal object's FOT row and every SQT entry
// bound to it live on the shard owning the focal's current cell. RQI rows
// are keyed by cell and never migrate.
class ShardRouter {
 public:
  // Coordinator-side traffic of the sharded deployment; all zero with one
  // shard. Mirrored into NetworkStats::inter_shard_* by the simulation.
  struct BackplaneStats {
    uint64_t messages = 0;
    uint64_t bytes = 0;
    uint64_t handoffs = 0;  // subset of messages
  };

  // Online rebalancing volume (DESIGN.md §15); all zero with rebalancing
  // off. Deterministic at fixed shard count: every field counts planner
  // decisions, never wall clock.
  struct RebalanceStats {
    uint64_t events = 0;        // rebalances that moved at least one cell
    uint64_t cells_moved = 0;
    uint64_t focals_moved = 0;  // handoffs driven by cell reassignment
    uint64_t rqi_ids_moved = 0;  // query ids carried by moved RQI rows
  };

  // Bound on the ObjectIds and QueryIds the home tables index (2^24,
  // 16x a million-object world). Checkpoint decode rejects ids at or above
  // it, position reports naming one are ignored and installs past it fail,
  // so a hostile image or uplink can make a table at most 64 MiB.
  static constexpr int64_t kMaxDenseId = int64_t{1} << 24;

  ShardRouter(const geo::Grid& grid, const net::BaseStationLayout& layout,
              const net::Bmap& bmap, net::WirelessNetwork& network,
              MobiEyesOptions options);

  Result<QueryId> InstallQuery(ObjectId focal_oid,
                               const geo::QueryRegion& region,
                               double filter_threshold, Seconds duration);
  void AdvanceTime(Seconds now);
  Seconds now() const { return now_; }
  Status RemoveQuery(QueryId qid);
  void OnUplink(ObjectId from, const net::Message& message);

  // --- Introspection -------------------------------------------------------

  Result<std::unordered_set<ObjectId>> QueryResult(QueryId qid) const;
  const SqtEntry* FindQuery(QueryId qid) const;
  const FotEntry* FindFocal(ObjectId oid) const;
  size_t query_count() const { return qid_home_.size(); }

  // The RQI row of `cell`, read from the owning shard.
  const std::vector<QueryId>& QueriesForCell(const geo::CellCoord& cell) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const geo::Grid& grid() const { return *grid_; }
  const ShardMap& shard_map() const { return map_; }
  const ServerShard& shard(int k) const { return *shards_[k]; }
  // Home shard of a query / focal object; -1 if unknown.
  int ShardOfQuery(QueryId qid) const;
  int ShardOfFocal(ObjectId oid) const;
  const BackplaneStats& backplane() const { return backplane_; }
  const RebalanceStats& rebalance_stats() const { return rebalance_stats_; }

  // --- Online rebalancing (DESIGN.md §15) ----------------------------------
  //
  // Called once per simulation step, at the step boundary (after the tick's
  // uplinks, before the step's checkpoint). Every rebalance_stride steps it
  // plans against the per-cell uplink-load window accumulated since the last
  // planning point and, when the plan is non-empty, advances the partition
  // epoch and migrates RQI rows and focal ownership under the new
  // assignment. No-op unless options.sharding.rebalance_enabled().
  void MaybeRebalance(int64_t step);

  double load_seconds() const { return load_timer_.total_seconds(); }
  // Wall time of the parallelized step phase (expiry scan, lease scan,
  // checkpoint encode) — the quantity the shard bench compares across
  // shard counts.
  double step_seconds() const { return step_timer_.total_seconds(); }
  void ResetLoadTimer() {
    load_timer_.Reset();
    step_timer_.Reset();
    for (auto& shard : shards_) shard->stats().step_micros = 0;
  }

  void set_trace_recorder(obs::TraceRecorder* trace) { trace_ = trace; }
  // Pool for the per-shard step phase; null (default) runs shards inline.
  // The pool must outlive the router.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  // --- Heat maps & lifecycle (DESIGN.md §12) -------------------------------
  //
  // Creates one HeatMap per shard over a rows×cols cell raster. Every
  // charge is attributed to the shard owning the charged *cell* (not the
  // shard that happened to do the work), so summing the per-shard windows
  // in fixed shard order yields totals that are byte-identical across
  // shard counts. Charges are suppressed while replaying a WAL: the
  // pre-crash run already recorded that work.
  void EnableHeatmaps(int32_t rows, int32_t cols);
  // Per-shard map, or nullptr when heat maps are disabled or `k` is not a
  // shard index.
  obs::HeatMap* shard_heatmap(int k) {
    if (k < 0 || static_cast<size_t>(k) >= heatmaps_.size()) return nullptr;
    return heatmaps_[k].get();
  }

  // Lifecycle latency tap (install->first-result rounds keyed by qid,
  // handoff rounds keyed by oid); null (the default) disables it. The
  // tracker must outlive the router.
  void set_lifecycle(obs::LifecycleTracker* lifecycle) {
    lifecycle_ = lifecycle;
  }

  // --- Crash recovery (DESIGN.md §9, §10) ----------------------------------

  void set_durable_store(Snapshot* store) { store_ = store; }
  Snapshot* durable_store() const { return store_; }
  void Checkpoint();
  Status Restore(const Snapshot& store, size_t* replayed);

 private:
  void HandleQueryInstallRequest(const net::QueryInstallRequest& request);
  void HandlePositionVelocityReport(const net::PositionVelocityReport& report);
  void HandleVelocityChange(const net::VelocityChangeReport& report);
  void HandleCellChange(const net::CellChangeReport& report);
  void HandleResultBitmap(const net::ResultBitmapReport& report);
  void HandleLqtReconcile(const net::LqtReconcileRequest& request);

  bool AckAndDedup(ObjectId from, uint32_t seq);
  void RenewLeases();

  // Shard that first receives an uplink: the one owning the reporting
  // object's cell (per the message's own cell evidence). Cross-shard work
  // relative to this ingress is what the backplane accounting charges.
  int IngressShard(const net::Message& message) const;

  // Mutable SQT entry lookup through the home index.
  SqtEntry* MutableQuery(QueryId qid);

  // Re-homes `oid` (and its bound queries) if its recorded cell moved into
  // another shard's partition, by delivering a ShardHandoff message.
  // Returns the (possibly new) home shard.
  int MigrateIfNeeded(ObjectId oid);

  // Applies a non-empty rebalance plan: advances the map epoch, moves the
  // affected RQI rows verbatim, and re-homes every focal object whose cell
  // changed owner through the ordinary kShardHandoff path.
  void ExecuteRebalance(const std::vector<CellMove>& moves);

  // RQI registration fanned out to every shard intersecting the region.
  void RqiAddAll(QueryId qid, const geo::CellRange& mon_region);
  void RqiRemoveAll(QueryId qid, const geo::CellRange& mon_region);

  // Charges one backplane message to reach `target_shard` from the current
  // ingress shard (free when local, single-shard, or replaying the WAL).
  void CountOp(int target_shard, size_t payload_bytes);

  // Adds `n` to `channel` at `cell` on the heat map of the shard owning
  // that cell. No-op when heat maps are disabled, while replaying a WAL,
  // or for n == 0.
  void ChargeHeat(obs::HeatMap::Channel channel, const geo::CellCoord& cell,
                  uint64_t n);
  // Cell evidence an uplink carries, for heat-map attribution; false for
  // messages with no resolvable cell (e.g. a bitmap report whose queries
  // are all gone).
  bool UplinkHeatCell(const net::Message& message, geo::CellCoord* cell) const;

  net::QueryInfo BuildQueryInfo(const ServerShard& home,
                                const SqtEntry& entry) const;
  void BroadcastToRegion(const geo::CellRange& region,
                         const net::Message& message);
  void SendDownlink(ObjectId to, net::Message message);

  // Runs fn(shard_index) for every shard — on the pool when attached and
  // multi-shard, inline otherwise — and emits per-shard trace spans (tid =
  // shard id + 1) from the calling thread after joining. Const: it mutates
  // no router state (workers touch only their own shard's slice).
  template <typename Fn>
  void ForEachShard(const char* span_name, const Fn& fn) const;

  std::vector<uint8_t> EncodeImage() const;
  Status DecodeImage(const std::vector<uint8_t>& image);

  const geo::Grid* grid_;
  const net::BaseStationLayout* layout_;
  const net::Bmap* bmap_;
  net::WirelessNetwork* network_;
  MobiEyesOptions options_;

  ShardMap map_;
  std::vector<std::unique_ptr<ServerShard>> shards_;
  // Home indexes: which shard currently owns each entry, indexed by the
  // dense ObjectId / QueryId (qids come from the monotone next_qid_).
  // Queries are always co-located with their focal object.
  HomeTable focal_home_;
  HomeTable qid_home_;

  QueryId next_qid_ = 0;
  Seconds now_ = 0.0;

  // Recently seen uplink sequence numbers per object (at-most-once dedup
  // for the reliable-uplink hardening). A small ring suffices: a client
  // tracks at most 16 uplinks and retires them in rough FIFO order.
  struct SeenSeqs {
    std::array<uint32_t, 8> ring{};
    size_t next = 0;
  };
  std::unordered_map<ObjectId, SeenSeqs> seen_seqs_;
  // Keys of seen_seqs_, kept sorted incrementally (an object enters once,
  // on its first reliable uplink). Checkpoints write the dedup table in
  // ascending-oid order; maintaining the order here turns the encoder's
  // per-checkpoint key sort into a contiguous range walk that parallelizes
  // across shards.
  std::vector<ObjectId> seen_order_;

  Snapshot* store_ = nullptr;
  bool replaying_ = false;    // inside Restore's WAL replay: suppress sends
  bool dispatching_ = false;  // inside OnUplink: the WAL already has this

  int ctx_shard_ = 0;  // ingress shard of the uplink being dispatched
  BackplaneStats backplane_;
  RebalanceStats rebalance_stats_;
  // Per-cell uplink counts since the last planning point (sized to the grid
  // only when rebalancing is enabled). Charged at the cell an uplink names
  // — layout- and thread-invariant, like the heat maps — and zeroed after
  // every planning point, moved or not.
  std::vector<uint64_t> load_window_;
  // Scratch for MaybeRebalance's assignment snapshot.
  std::vector<int32_t> owners_scratch_;

  // Per-step scratch, reused so the hot server phases allocate nothing at
  // steady state: the per-shard scan outputs and their merge vector
  // (AdvanceTime / RenewLeases), the RQI row-diff buffers
  // (HandleCellChange), and the reconcile expected/known sets
  // (HandleLqtReconcile). Dispatch is serial and none of the users can
  // re-enter itself through the synchronous network, so one copy suffices.
  std::vector<std::vector<QueryId>> scan_per_shard_;
  std::vector<QueryId> scan_merged_;
  std::vector<QueryId> diff_scratch_;
  std::vector<QueryId> diff_out_;
  std::vector<QueryId> reconcile_expected_;
  std::vector<QueryId> reconcile_known_;

  ReentrantTimer load_timer_;
  ReentrantTimer step_timer_;
  ThreadPool* pool_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  // One heat map per shard (empty unless EnableHeatmaps was called).
  std::vector<std::unique_ptr<obs::HeatMap>> heatmaps_;
  obs::LifecycleTracker* lifecycle_ = nullptr;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SHARD_ROUTER_H_

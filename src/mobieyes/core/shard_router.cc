#include "mobieyes/core/shard_router.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>

#include "mobieyes/core/rebalance.h"
#include "mobieyes/net/codec.h"
#include "mobieyes/obs/lifecycle.h"

namespace mobieyes::core {

namespace {

// Checkpoint image framing ("MoCI"), distinct from the store framing
// ("MoCS") and the wire framing ("MoEY") so a buffer can never be mistaken
// for the wrong layer. The image is global and sorted-key — independent of
// the shard count, so any deployment can restore any checkpoint.
constexpr uint32_t kImageMagic = 0x4d6f4349;
constexpr uint16_t kImageVersion = 1;
// Version 2 = version 1 plus the live partition epoch (epoch counter, shard
// count and owner table) right after the next_qid field. Written only when
// the epoch is non-zero, so rebalance-off checkpoints stay byte-identical
// to version 1 — and shard-count-independent, as before.
constexpr uint16_t kImageVersionEpoch = 2;

// Hash-map keys in deterministic order, so two checkpoints of identical
// logical state are byte-identical.
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Modeled payload sizes of the coordinator backplane ops (DESIGN.md §10):
// what a multi-process deployment would put on the wire for each cross-shard
// interaction. Handoffs use their real wire encoding instead.
constexpr size_t kOpEntryRead = net::kQueryInfoBytes;  // fetch a full SQT row
constexpr size_t kOpEntryTouch = 2 * net::kIdBytes;    // qid -> focal/erase
constexpr size_t kOpResultFlip = 2 * net::kIdBytes + 1;
constexpr size_t kOpRqiUpdate = net::kIdBytes + net::kCellRangeBytes;
constexpr size_t kOpReportForward = net::kIdBytes + net::kFocalStateBytes;

}  // namespace

using net::Message;
using net::QueryInfo;

ShardRouter::ShardRouter(const geo::Grid& grid,
                         const net::BaseStationLayout& layout,
                         const net::Bmap& bmap, net::WirelessNetwork& network,
                         MobiEyesOptions options)
    : grid_(&grid),
      layout_(&layout),
      bmap_(&bmap),
      network_(&network),
      options_(options),
      map_(grid, options.sharding) {
  shards_.reserve(static_cast<size_t>(map_.num_shards()));
  for (int k = 0; k < map_.num_shards(); ++k) {
    shards_.push_back(std::make_unique<ServerShard>(k, grid, map_));
  }
  if (options_.sharding.rebalance_enabled()) {
    load_window_.resize(static_cast<size_t>(grid.CellCount()), 0);
  }
}

template <typename Fn>
void ShardRouter::ForEachShard(const char* span_name, const Fn& fn) const {
  const int n = num_shards();
  const bool tracing = trace_ != nullptr && n > 1;
  struct SpanTimes {
    uint64_t start = 0;
    uint64_t dur = 0;
  };
  std::vector<SpanTimes> times;
  if (tracing) times.resize(static_cast<size_t>(n));
  auto body = [&](int64_t k) {
    auto t0 = std::chrono::steady_clock::now();
    if (tracing) {
      // NowMicros only reads the recorder's epoch — safe off-thread; the
      // append happens below, after the join, on the calling thread.
      uint64_t start = trace_->NowMicros();
      fn(static_cast<int>(k));
      times[static_cast<size_t>(k)] = {start, trace_->NowMicros() - start};
    } else {
      fn(static_cast<int>(k));
    }
    // Each shard accumulates into its own Stats, so this is race-free even
    // when the pool runs shards concurrently.
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    shards_[static_cast<size_t>(k)]->stats().step_micros +=
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count());
  };
  if (pool_ != nullptr && n > 1) {
    pool_->ParallelFor(0, n, body);
  } else {
    for (int64_t k = 0; k < n; ++k) body(k);
  }
  if (tracing) {
    for (int k = 0; k < n; ++k) {
      trace_->AddCompleteOnTid(span_name, "sim", times[k].start, times[k].dur,
                               k + 1);
    }
  }
}

void ShardRouter::CountOp(int target_shard, size_t payload_bytes) {
  if (num_shards() == 1 || replaying_ || target_shard == ctx_shard_) return;
  ++backplane_.messages;
  backplane_.bytes += net::kHeaderBytes + payload_bytes;
}

void ShardRouter::EnableHeatmaps(int32_t rows, int32_t cols) {
  heatmaps_.clear();
  heatmaps_.reserve(static_cast<size_t>(num_shards()));
  for (int k = 0; k < num_shards(); ++k) {
    heatmaps_.push_back(std::make_unique<obs::HeatMap>(rows, cols));
  }
}

void ShardRouter::ChargeHeat(obs::HeatMap::Channel channel,
                             const geo::CellCoord& cell, uint64_t n) {
  // Replay suppression mirrors the send/backplane suppression: the
  // pre-crash run already charged this work.
  if (heatmaps_.empty() || replaying_ || n == 0) return;
  heatmaps_[map_.ShardOf(cell)]->Add(channel, cell.i, cell.j, n);
}

bool ShardRouter::UplinkHeatCell(const Message& message,
                                 geo::CellCoord* cell) const {
  // Unlike IngressShard this always resolves the cell itself (never the
  // shard), and it must stay layout-invariant: the same uplink stream
  // charges the same cells whatever the partitioning.
  switch (message.type) {
    case net::MessageType::kQueryInstallRequest: {
      const auto& p = std::get<net::QueryInstallRequest>(message.payload);
      const FotEntry* focal = FindFocal(p.oid);
      if (focal == nullptr) return false;
      *cell = focal->cell;
      return true;
    }
    case net::MessageType::kPositionVelocityReport: {
      const auto& p = std::get<net::PositionVelocityReport>(message.payload);
      *cell = grid_->CellOf(p.state.pos);
      return true;
    }
    case net::MessageType::kVelocityChangeReport: {
      const auto& p = std::get<net::VelocityChangeReport>(message.payload);
      *cell = grid_->CellOf(p.state.pos);
      return true;
    }
    case net::MessageType::kCellChangeReport: {
      const auto& p = std::get<net::CellChangeReport>(message.payload);
      *cell = p.new_cell;
      return true;
    }
    case net::MessageType::kResultBitmapReport: {
      const auto& p = std::get<net::ResultBitmapReport>(message.payload);
      for (QueryId qid : p.qids) {
        const SqtEntry* entry = FindQuery(qid);
        if (entry != nullptr) {
          *cell = entry->curr_cell;
          return true;
        }
      }
      return false;
    }
    case net::MessageType::kLqtReconcileRequest: {
      const auto& p = std::get<net::LqtReconcileRequest>(message.payload);
      *cell = p.cell;
      return true;
    }
    default:
      return false;
  }
}

int ShardRouter::ShardOfQuery(QueryId qid) const {
  return qid_home_.Find(qid);
}

int ShardRouter::ShardOfFocal(ObjectId oid) const {
  return focal_home_.Find(oid);
}

SqtEntry* ShardRouter::MutableQuery(QueryId qid) {
  const int home = qid_home_.Find(qid);
  return home < 0 ? nullptr : shards_[home]->FindQuery(qid);
}

const std::vector<QueryId>& ShardRouter::QueriesForCell(
    const geo::CellCoord& cell) const {
  return shards_[map_.ShardOf(cell)]->QueriesForCell(cell);
}

int ShardRouter::MigrateIfNeeded(ObjectId oid) {
  const int home = focal_home_.Find(oid);
  if (home < 0) return -1;
  ServerShard& src = *shards_[home];
  const FotEntry* focal = src.FindFocal(oid);
  if (focal == nullptr) return home;
  int target = map_.ShardOf(focal->cell);
  if (target == home) return home;
  // ExtractFocal below invalidates `focal`.
  const geo::CellCoord handoff_cell = focal->cell;

  // The focal crossed a partition boundary: migrate ownership with an
  // explicit handoff message so the co-location invariant holds. The
  // handoff is delivered in-memory on the coordinator backplane and
  // accounted at its real wire size; it never touches the wireless medium,
  // so clients cannot observe the shard layout.
  Message message = net::MakeMessage(src.ExtractFocal(oid, target));
  if (!replaying_) {
    ++backplane_.messages;
    ++backplane_.handoffs;
    backplane_.bytes += net::WireSizeBytes(message);
    // Layout-dependent by nature (no handoffs with one shard), so the
    // handoffs channel and handoff kind are excluded from deterministic
    // exports.
    ChargeHeat(obs::HeatMap::kHandoffs, handoff_cell, 1);
    if (lifecycle_ != nullptr) {
      lifecycle_->Stamp(obs::LifecycleTracker::kHandoff,
                        static_cast<uint64_t>(oid));
    }
  }
  auto& handoff = std::get<net::ShardHandoff>(message.payload);
  for (const net::ShardQueryState& q : handoff.queries) {
    qid_home_.Set(q.qid, target);
  }
  shards_[target]->AdoptFocal(std::move(handoff));
  focal_home_.Set(oid, target);
  if (lifecycle_ != nullptr && !replaying_) {
    // Ownership transferred within the dispatch: a same-step (latency 0)
    // round, recorded so handoff volume shows up in the lifecycle table.
    lifecycle_->ResolveIfPending(obs::LifecycleTracker::kHandoff,
                                 static_cast<uint64_t>(oid));
  }
  return target;
}

void ShardRouter::MaybeRebalance(int64_t step) {
  const ShardingOptions& sharding = options_.sharding;
  if (!sharding.rebalance_enabled() || replaying_) return;
  if (step <= 0 || step % sharding.rebalance_stride != 0) return;
  TimedSection timed(load_timer_);
  map_.AssignmentSnapshot(&owners_scratch_);
  std::vector<CellMove> moves =
      PlanRebalance(owners_scratch_, load_window_, num_shards(),
                    sharding.rebalance_threshold, sharding.rebalance_max_moves);
  // The window restarts at every planning point, moved or not — each plan
  // sees exactly one stride's worth of load.
  std::fill(load_window_.begin(), load_window_.end(), 0);
  if (moves.empty()) return;
  ExecuteRebalance(moves);
}

void ShardRouter::ExecuteRebalance(const std::vector<CellMove>& moves) {
  const int32_t columns = grid_->columns();
  // Pre-move owners, resolved before the epoch advances.
  std::vector<int> old_owner(moves.size());
  std::vector<geo::CellCoord> cells(moves.size());
  for (size_t m = 0; m < moves.size(); ++m) {
    cells[m] = {moves[m].flat % columns, moves[m].flat / columns};
    old_owner[m] = map_.ShardOf(cells[m]);
  }
  const uint64_t new_epoch = map_.epoch() + 1;
  if (!map_.ApplyMoves(new_epoch, moves).ok()) return;

  // RQI rows of the moved cells transfer verbatim — order preserved, since
  // row order drives broadcast order. Accounted like handoffs: a real
  // backplane would put each row on the wire once.
  uint64_t cells_moved = 0;
  for (size_t m = 0; m < moves.size(); ++m) {
    const int to = moves[m].to_shard;
    if (old_owner[m] == to) continue;
    ++cells_moved;
    std::vector<QueryId> row = shards_[old_owner[m]]->TakeRqiRow(cells[m]);
    ++backplane_.messages;
    backplane_.bytes +=
        net::kHeaderBytes + net::kCellBytes + row.size() * net::kIdBytes;
    rebalance_stats_.rqi_ids_moved += row.size();
    shards_[to]->SetRqiRow(cells[m], std::move(row));
  }

  // Re-home every focal object whose cell changed owner through the
  // ordinary handoff path, in ascending oid order (the home table's order),
  // which fixes the handoff sequence and everything accounted along it.
  uint64_t focals_moved = 0;
  for (ObjectId oid = 0; oid < focal_home_.id_end(); ++oid) {
    const int before = focal_home_.Find(oid);
    if (before >= 0 && MigrateIfNeeded(oid) != before) ++focals_moved;
  }

  ++rebalance_stats_.events;
  rebalance_stats_.cells_moved += cells_moved;
  rebalance_stats_.focals_moved += focals_moved;
}

void ShardRouter::RqiAddAll(QueryId qid, const geo::CellRange& mon_region) {
  for (int s : map_.ShardsIntersecting(mon_region)) {
    shards_[s]->RqiAdd(qid, mon_region);
    CountOp(s, kOpRqiUpdate);
  }
}

void ShardRouter::RqiRemoveAll(QueryId qid, const geo::CellRange& mon_region) {
  for (int s : map_.ShardsIntersecting(mon_region)) {
    shards_[s]->RqiRemove(qid, mon_region);
    CountOp(s, kOpRqiUpdate);
  }
}

Result<QueryId> ShardRouter::InstallQuery(ObjectId focal_oid,
                                          const geo::QueryRegion& region,
                                          double filter_threshold,
                                          Seconds duration) {
  TimedSection timed(load_timer_);
  TRACE_SPAN(trace_, "server.install_query");
  if (!region.valid()) {
    return Status::InvalidArgument("query region must have positive extent");
  }
  if (duration <= 0.0) {
    return Status::InvalidArgument("query duration must be positive");
  }

  // Write-ahead for server-side installations: uplink-driven installs are
  // already logged by OnUplink (dispatching_), but an install through this
  // public API would otherwise be invisible to the WAL and vanish on
  // restore. The wire request carries no duration, so a finite-duration
  // query replayed from the WAL loses its expiry — checkpoints taken after
  // the install record the real deadline.
  if (store_ != nullptr && !replaying_ && !dispatching_) {
    store_->Append(focal_oid,
                   net::MakeMessage(net::QueryInstallRequest{
                       focal_oid, region, filter_threshold}));
  }

  // §3.3 step 3: if the focal object is unknown, request its kinematics.
  // Delivery is synchronous, so the PositionVelocityReport round trip
  // completes (and fills the FOT on the cell's shard) before the call below
  // returns. (During WAL replay the round trip is suppressed; Restore
  // pre-applies the logged PositionVelocityReport instead.)
  if (!focal_home_.contains(focal_oid)) {
    SendDownlink(focal_oid,
                 net::MakeMessage(net::PositionVelocityRequest{focal_oid}));
    if (!focal_home_.contains(focal_oid)) {
      return Status::NotFound("focal object did not report its position");
    }
  }
  if (next_qid_ >= kMaxDenseId) {
    return Status::OutOfRange("query id space exhausted");
  }
  // Installation executes on the focal's home shard.
  const int home = focal_home_.Find(focal_oid);
  ctx_shard_ = home;
  ServerShard& shard = *shards_[home];
  FotEntry& focal = *shard.FindFocal(focal_oid);

  // §3.3 step 4: create the SQT entry and index it in the RQI.
  QueryId qid = next_qid_++;
  SqtEntry entry;
  entry.qid = qid;
  entry.focal_oid = focal_oid;
  entry.region = region;
  entry.filter_threshold = filter_threshold;
  entry.curr_cell = focal.cell;
  entry.mon_region = grid_->MonitoringRegion(entry.curr_cell,
                                             region.ReachX(),
                                             region.ReachY());
  entry.expires_at =
      duration == kNeverExpires ? kNeverExpires : now_ + duration;
  if (options_.lease_duration > 0.0) {
    // Stagger the first renewal by query id so lease refreshes spread over
    // the period instead of bursting on one step.
    entry.lease_renew_at =
        now_ + options_.lease_duration *
                   (1.0 + static_cast<double>(qid % 8) / 8.0);
  }
  RqiAddAll(qid, entry.mon_region);
  focal.queries.push_back(qid);
  auto [it, inserted] = shard.sqt().emplace(qid, std::move(entry));
  (void)inserted;
  qid_home_.Insert(qid, home);
  ChargeHeat(obs::HeatMap::kInstalls, it->second.curr_cell, 1);
  if (lifecycle_ != nullptr && !replaying_) {
    // Install->first-result round, closed when the first target report for
    // this query lands (result-bitmap or reconcile resync path).
    lifecycle_->Stamp(obs::LifecycleTracker::kInstallFirstResult,
                      static_cast<uint64_t>(qid));
  }

  // Tell the focal object it now has a bound query (sets hasMQ), then
  // install the query on every object in the monitoring region through the
  // minimal set of covering base stations.
  SendDownlink(focal_oid,
               net::MakeMessage(net::FocalNotification{focal_oid, qid}));
  net::QueryInstallBroadcast broadcast;
  broadcast.queries.push_back(BuildQueryInfo(shard, it->second));
  BroadcastToRegion(it->second.mon_region,
                    net::MakeMessage(std::move(broadcast)));
  return qid;
}

void ShardRouter::AdvanceTime(Seconds now) {
  TRACE_SPAN(trace_, "server.advance_time");
  now_ = now;
  const size_t n = static_cast<size_t>(num_shards());
  std::vector<std::vector<QueryId>>& per_shard = scan_per_shard_;
  per_shard.resize(n);
  for (auto& part : per_shard) part.clear();
  std::vector<QueryId>& expired = scan_merged_;
  expired.clear();
  {
    TimedSection timed(load_timer_);
    TimedSection step(step_timer_);
    ForEachShard("server.shard.expiry_scan", [&](int k) {
      shards_[k]->CollectExpired(now, &per_shard[k]);
    });
    for (const auto& part : per_shard) {
      expired.insert(expired.end(), part.begin(), part.end());
    }
  }
  // Sorted so removal-broadcast order does not depend on hash-map layout —
  // or on the shard count: a merged multi-shard scan and the monolith's
  // single scan collapse to the same sequence.
  std::sort(expired.begin(), expired.end());
  for (QueryId qid : expired) {
    (void)RemoveQuery(qid);
  }
  if (options_.lease_duration > 0.0) RenewLeases();
}

void ShardRouter::RenewLeases() {
  const size_t n = static_cast<size_t>(num_shards());
  std::vector<std::vector<QueryId>>& per_shard = scan_per_shard_;
  per_shard.resize(n);
  for (auto& part : per_shard) part.clear();
  std::vector<QueryId>& due = scan_merged_;
  due.clear();
  {
    TimedSection timed(load_timer_);
    TimedSection step(step_timer_);
    ForEachShard("server.shard.lease_scan", [&](int k) {
      shards_[k]->CollectLeaseDue(now_, &per_shard[k]);
    });
    for (const auto& part : per_shard) {
      due.insert(due.end(), part.begin(), part.end());
    }
  }
  // Sorted so the broadcast order (and hence any fault-injection draw
  // sequence downstream) is independent of hash-map iteration order.
  std::sort(due.begin(), due.end());
  for (QueryId qid : due) {
    const int home = qid_home_.Find(qid);
    ctx_shard_ = home;
    ServerShard& shard = *shards_[home];
    SqtEntry& entry = *shard.FindQuery(qid);
    entry.lease_renew_at = now_ + options_.lease_duration;
    // Re-assert hasMQ on the focal object (a lost FocalNotification would
    // otherwise silence its dead reckoning forever), then refresh the
    // monitoring region. QueryUpdateBroadcast is idempotent on receivers:
    // they install, update or drop based on their own cell.
    SendDownlink(entry.focal_oid,
                 net::MakeMessage(net::FocalNotification{entry.focal_oid,
                                                         qid}));
    net::QueryUpdateBroadcast broadcast;
    broadcast.queries.push_back(BuildQueryInfo(shard, entry));
    BroadcastToRegion(entry.mon_region,
                      net::MakeMessage(std::move(broadcast)));
  }
}

Status ShardRouter::RemoveQuery(QueryId qid) {
  TimedSection timed(load_timer_);
  const int home = qid_home_.Find(qid);
  if (home < 0) return Status::NotFound("unknown query id");
  ctx_shard_ = home;
  ServerShard& shard = *shards_[home];
  auto it = shard.sqt().find(qid);
  if (it == shard.sqt().end()) return Status::NotFound("unknown query id");
  SqtEntry entry = std::move(it->second);
  shard.sqt().erase(it);
  qid_home_.Erase(qid);
  RqiRemoveAll(qid, entry.mon_region);
  if (lifecycle_ != nullptr && !replaying_) {
    // A query removed before any target reported cancels its open
    // install->first-result round (counted, not leaked).
    lifecycle_->Drop(obs::LifecycleTracker::kInstallFirstResult,
                     static_cast<uint64_t>(qid));
  }

  // Co-location: the focal (if still bound) lives on the same shard.
  auto fot_it = shard.fot().find(entry.focal_oid);
  if (fot_it != shard.fot().end()) {
    auto& queries = fot_it->second.queries;
    queries.erase(std::find(queries.begin(), queries.end(), qid));
    if (queries.empty()) {
      // No query bound to this object anymore: clear its hasMQ flag (and
      // drop it from the FOT — nothing left to mediate for it).
      SendDownlink(entry.focal_oid,
                   net::MakeMessage(net::FocalNotification{
                       entry.focal_oid, kInvalidQueryId}));
      shard.fot().erase(fot_it);
      focal_home_.Erase(entry.focal_oid);
    }
  }

  net::QueryRemoveBroadcast broadcast;
  broadcast.qids.push_back(qid);
  BroadcastToRegion(entry.mon_region, net::MakeMessage(std::move(broadcast)));
  return Status::OK();
}

int ShardRouter::IngressShard(const Message& message) const {
  if (num_shards() == 1) return 0;
  switch (message.type) {
    case net::MessageType::kQueryInstallRequest: {
      const auto& p = std::get<net::QueryInstallRequest>(message.payload);
      return std::max(focal_home_.Find(p.oid), 0);
    }
    case net::MessageType::kPositionVelocityReport: {
      const auto& p = std::get<net::PositionVelocityReport>(message.payload);
      return map_.ShardOf(grid_->CellOf(p.state.pos));
    }
    case net::MessageType::kVelocityChangeReport: {
      const auto& p = std::get<net::VelocityChangeReport>(message.payload);
      return map_.ShardOf(grid_->CellOf(p.state.pos));
    }
    case net::MessageType::kCellChangeReport: {
      const auto& p = std::get<net::CellChangeReport>(message.payload);
      return map_.ShardOf(p.new_cell);
    }
    case net::MessageType::kResultBitmapReport: {
      const auto& p = std::get<net::ResultBitmapReport>(message.payload);
      for (QueryId qid : p.qids) {
        const int home = qid_home_.Find(qid);
        if (home >= 0) return home;
      }
      return 0;
    }
    case net::MessageType::kLqtReconcileRequest: {
      const auto& p = std::get<net::LqtReconcileRequest>(message.payload);
      return map_.ShardOf(p.cell);
    }
    default:
      return 0;
  }
}

void ShardRouter::OnUplink(ObjectId from, const Message& message) {
  TimedSection timed(load_timer_);
  // Write-ahead: log the uplink before any handler mutates state, so the
  // durable store always covers everything the in-memory state reflects.
  // Duplicates are logged too — replay routes them through the same dedup.
  if (store_ != nullptr && !replaying_) store_->Append(from, message);
  const bool outer_dispatch = dispatching_;
  dispatching_ = true;
  ctx_shard_ = IngressShard(message);
  ++shards_[ctx_shard_]->stats().uplinks_routed;
  if ((!heatmaps_.empty() || !load_window_.empty()) && !replaying_) {
    // Charged per arrival (duplicates included — a retransmission is radio
    // and routing work too), at the cell the message itself names. The
    // rebalance load window shares the heat maps' cell resolution, so the
    // planner's input is layout-invariant by the same argument.
    geo::CellCoord cell;
    if (UplinkHeatCell(message, &cell)) {
      ChargeHeat(obs::HeatMap::kUplinks, cell, 1);
      if (!load_window_.empty()) {
        ++load_window_[static_cast<size_t>(grid_->FlatIndex(cell))];
      }
    }
  }
  // A non-zero envelope seq marks a tracked uplink (reliable-uplink
  // hardening): acknowledge it and drop retransmissions of messages already
  // processed.
  if (message.seq != 0 && AckAndDedup(from, message.seq)) {
    dispatching_ = outer_dispatch;
    return;
  }
  switch (message.type) {
    case net::MessageType::kQueryInstallRequest: {
      TRACE_SPAN(trace_, "server.handle_query_install_request");
      HandleQueryInstallRequest(
          std::get<net::QueryInstallRequest>(message.payload));
      break;
    }
    case net::MessageType::kPositionVelocityReport: {
      TRACE_SPAN(trace_, "server.handle_position_velocity_report");
      HandlePositionVelocityReport(
          std::get<net::PositionVelocityReport>(message.payload));
      break;
    }
    case net::MessageType::kVelocityChangeReport: {
      TRACE_SPAN(trace_, "server.handle_velocity_change");
      HandleVelocityChange(
          std::get<net::VelocityChangeReport>(message.payload));
      break;
    }
    case net::MessageType::kCellChangeReport: {
      TRACE_SPAN(trace_, "server.handle_cell_change");
      HandleCellChange(std::get<net::CellChangeReport>(message.payload));
      break;
    }
    case net::MessageType::kResultBitmapReport: {
      TRACE_SPAN(trace_, "server.handle_result_bitmap");
      HandleResultBitmap(std::get<net::ResultBitmapReport>(message.payload));
      break;
    }
    case net::MessageType::kLqtReconcileRequest: {
      TRACE_SPAN(trace_, "server.handle_lqt_reconcile");
      HandleLqtReconcile(
          std::get<net::LqtReconcileRequest>(message.payload));
      break;
    }
    default:
      // Downlink-only types are never valid on the uplink; ignore.
      break;
  }
  dispatching_ = outer_dispatch;
}

bool ShardRouter::AckAndDedup(ObjectId from, uint32_t seq) {
  auto [it, inserted] = seen_seqs_.try_emplace(from);
  if (inserted) {
    seen_order_.insert(
        std::lower_bound(seen_order_.begin(), seen_order_.end(), from), from);
  }
  SeenSeqs& seen = it->second;
  bool duplicate = false;
  for (uint32_t s : seen.ring) {
    if (s == seq) {
      duplicate = true;
      break;
    }
  }
  if (!duplicate) {
    seen.ring[seen.next] = seq;
    seen.next = (seen.next + 1) % seen.ring.size();
  }
  // Always (re-)acknowledge: the previous ack may itself have been lost,
  // and only an ack stops the sender's retransmissions.
  SendDownlink(from, net::MakeMessage(net::UplinkAck{from, seq}));
  return duplicate;
}

void ShardRouter::HandleQueryInstallRequest(
    const net::QueryInstallRequest& request) {
  // A user poses a query from their mobile device; same path as a
  // server-side installation.
  (void)InstallQuery(request.oid, request.region, request.filter_threshold,
                     kNeverExpires);
}

void ShardRouter::HandlePositionVelocityReport(
    const net::PositionVelocityReport& report) {
  // The home table is indexed by oid: an id no world can hold is ignored
  // (this also covers WAL replay of a hostile log).
  if (report.oid < 0 || report.oid >= kMaxDenseId) return;
  const int home = focal_home_.Find(report.oid);
  if (home < 0) {
    // New focal object: home it on its reported cell's shard (the ingress).
    FotEntry entry;
    entry.state = report.state;
    entry.max_speed = report.max_speed;
    entry.cell = grid_->CellOf(report.state.pos);
    const int ingress = map_.ShardOf(entry.cell);
    shards_[ingress]->fot().emplace(report.oid, std::move(entry));
    focal_home_.Insert(report.oid, ingress);
    return;
  }
  if (home != ctx_shard_) CountOp(home, kOpReportForward);
  FotEntry& entry = *shards_[home]->FindFocal(report.oid);
  entry.state = report.state;
  entry.max_speed = report.max_speed;
  entry.cell = grid_->CellOf(report.state.pos);
  (void)MigrateIfNeeded(report.oid);
}

void ShardRouter::HandleVelocityChange(
    const net::VelocityChangeReport& report) {
  int home = focal_home_.Find(report.oid);
  if (home < 0) return;  // stale report, unbound object
  if (home != ctx_shard_) CountOp(home, kOpReportForward);
  FotEntry* focal_ptr = shards_[home]->FindFocal(report.oid);
  // A delayed or retransmitted report can arrive after a newer one; relaying
  // the older vector would roll every monitoring region's prediction back.
  if (report.state.tm < focal_ptr->state.tm) return;
  focal_ptr->state = report.state;
  focal_ptr->cell = grid_->CellOf(report.state.pos);
  home = MigrateIfNeeded(report.oid);
  ServerShard& shard = *shards_[home];
  const FotEntry& focal = *shard.FindFocal(report.oid);

  // §3.4: relay the new vector to the monitoring region of each query bound
  // to this focal object. Groupable queries sharing a monitoring region are
  // served by a single broadcast (§4.1); without grouping each query gets
  // its own broadcast as in the base protocol. Co-location: every bound
  // query's entry is on `shard`.
  const bool lazy = options_.propagation == PropagationMode::kLazy;
  if (options_.enable_query_grouping) {
    std::map<std::tuple<int32_t, int32_t, int32_t, int32_t>,
             std::vector<QueryId>>
        by_region;
    for (QueryId qid : focal.queries) {
      const SqtEntry& entry = shard.sqt().at(qid);
      by_region[{entry.mon_region.i_lo, entry.mon_region.i_hi,
                 entry.mon_region.j_lo, entry.mon_region.j_hi}]
          .push_back(qid);
    }
    for (const auto& [key, qids] : by_region) {
      geo::CellRange region{std::get<0>(key), std::get<1>(key),
                            std::get<2>(key), std::get<3>(key)};
      net::VelocityChangeBroadcast broadcast;
      broadcast.focal_oid = report.oid;
      broadcast.state = report.state;
      if (lazy) {
        broadcast.carries_query_info = true;
        for (QueryId qid : qids) {
          broadcast.queries.push_back(
              BuildQueryInfo(shard, shard.sqt().at(qid)));
        }
      }
      BroadcastToRegion(region, net::MakeMessage(std::move(broadcast)));
    }
  } else {
    for (QueryId qid : focal.queries) {
      const SqtEntry& entry = shard.sqt().at(qid);
      net::VelocityChangeBroadcast broadcast;
      broadcast.focal_oid = report.oid;
      broadcast.state = report.state;
      if (lazy) {
        broadcast.carries_query_info = true;
        broadcast.queries.push_back(BuildQueryInfo(shard, entry));
      }
      BroadcastToRegion(entry.mon_region,
                        net::MakeMessage(std::move(broadcast)));
    }
  }
}

void ShardRouter::HandleCellChange(const net::CellChangeReport& report) {
  // §3.5. For any reporting object under eager propagation, answer with the
  // queries that newly cover its destination cell. The two RQI rows live on
  // the cells' owning shards; the diff preserves the new row's order, like
  // ReverseQueryIndex::NewQueriesForMove.
  if (options_.propagation == PropagationMode::kEager) {
    const int prev_owner = map_.ShardOf(report.prev_cell);
    const std::vector<QueryId>& prev_row =
        shards_[prev_owner]->QueriesForCell(report.prev_cell);
    if (prev_owner != ctx_shard_) {
      CountOp(prev_owner,
              net::kCellBytes + prev_row.size() * net::kIdBytes);
    }
    const std::vector<QueryId>& new_row = QueriesForCell(report.new_cell);
    // RQI scan work: both rows are walked to answer this crossing.
    ChargeHeat(obs::HeatMap::kRqiScan, report.prev_cell, prev_row.size());
    ChargeHeat(obs::HeatMap::kRqiScan, report.new_cell, new_row.size());
    // Batched row diff (sorted scratch + binary search) instead of a
    // per-id linear scan of the previous row; output order is still
    // new_row's order.
    std::vector<QueryId>& new_qids = diff_out_;
    ReverseQueryIndex::RowDifferenceInto(new_row, prev_row, &diff_scratch_,
                                         &new_qids);
    // The object never monitors its own queries.
    std::erase_if(new_qids, [&](QueryId qid) {
      const int home = qid_home_.Find(qid);
      CountOp(home, kOpEntryTouch);
      return shards_[home]->FindQuery(qid)->focal_oid == report.oid;
    });
    if (!new_qids.empty()) {
      net::NewQueriesNotification notification;
      notification.oid = report.oid;
      for (QueryId qid : new_qids) {
        const int home = qid_home_.Find(qid);
        CountOp(home, kOpEntryRead);
        notification.queries.push_back(
            BuildQueryInfo(*shards_[home], *shards_[home]->FindQuery(qid)));
      }
      SendDownlink(report.oid, net::MakeMessage(std::move(notification)));
    }
  }

  // Additional operations when the mover is a focal object: recompute each
  // bound query's monitoring region and notify the union of the old and new
  // regions. The focal (and its queries) first migrate to the new cell's
  // shard — which is the ingress shard — if a partition boundary was
  // crossed.
  const int prev_home = focal_home_.Find(report.oid);
  if (prev_home < 0) return;
  shards_[prev_home]->FindFocal(report.oid)->cell = report.new_cell;
  const int home = MigrateIfNeeded(report.oid);
  ServerShard& shard = *shards_[home];
  FotEntry& focal = *shard.FindFocal(report.oid);

  // Group queries that share both old and new monitoring regions into one
  // broadcast (matching monitoring regions, §4.1).
  std::map<std::tuple<int32_t, int32_t, int32_t, int32_t, int32_t, int32_t,
                      int32_t, int32_t>,
           std::vector<QueryId>>
      by_region_pair;
  for (QueryId qid : focal.queries) {
    SqtEntry& entry = shard.sqt().at(qid);
    geo::CellRange old_region = entry.mon_region;
    entry.curr_cell = report.new_cell;
    entry.mon_region = grid_->MonitoringRegion(
        report.new_cell, entry.region.ReachX(), entry.region.ReachY());
    RqiRemoveAll(qid, old_region);
    RqiAddAll(qid, entry.mon_region);
    auto key = std::make_tuple(old_region.i_lo, old_region.i_hi,
                               old_region.j_lo, old_region.j_hi,
                               entry.mon_region.i_lo, entry.mon_region.i_hi,
                               entry.mon_region.j_lo, entry.mon_region.j_hi);
    if (options_.enable_query_grouping) {
      by_region_pair[key].push_back(qid);
    } else {
      net::QueryUpdateBroadcast broadcast;
      broadcast.queries.push_back(BuildQueryInfo(shard, entry));
      BroadcastToRegion(geo::CellRange::Union(old_region, entry.mon_region),
                        net::MakeMessage(std::move(broadcast)));
    }
  }
  for (const auto& [key, qids] : by_region_pair) {
    geo::CellRange old_region{std::get<0>(key), std::get<1>(key),
                              std::get<2>(key), std::get<3>(key)};
    geo::CellRange new_region{std::get<4>(key), std::get<5>(key),
                              std::get<6>(key), std::get<7>(key)};
    net::QueryUpdateBroadcast broadcast;
    for (QueryId qid : qids) {
      broadcast.queries.push_back(BuildQueryInfo(shard, shard.sqt().at(qid)));
    }
    BroadcastToRegion(geo::CellRange::Union(old_region, new_region),
                      net::MakeMessage(std::move(broadcast)));
  }
}

void ShardRouter::HandleResultBitmap(const net::ResultBitmapReport& report) {
  for (size_t k = 0; k < report.qids.size(); ++k) {
    const int home = qid_home_.Find(report.qids[k]);
    if (home < 0) continue;
    CountOp(home, kOpResultFlip);
    SqtEntry* entry = shards_[home]->FindQuery(report.qids[k]);
    bool is_target = (report.bitmap >> k) & 1;
    if (is_target) {
      entry->result.insert(report.oid);
      if (lifecycle_ != nullptr && !replaying_) {
        lifecycle_->ResolveIfPending(
            obs::LifecycleTracker::kInstallFirstResult,
            static_cast<uint64_t>(report.qids[k]));
      }
    } else {
      entry->result.erase(report.oid);
    }
  }
}

void ShardRouter::HandleLqtReconcile(const net::LqtReconcileRequest& request) {
  if (request.cold_start) {
    // The object restarted and lost its containment state: every result
    // membership it previously reported is now unverifiable. Clear it
    // everywhere (a coordinated sweep over all shards) and let its fresh
    // evaluations re-report the flips — briefly missing beats spuriously
    // present forever.
    for (int s = 0; s < num_shards(); ++s) {
      CountOp(s, net::kIdBytes);
      for (auto& [qid, entry] : shards_[s]->sqt()) {
        entry.result.erase(request.oid);
      }
    }
    // A restarted focal object also lost hasMQ; without this repair it
    // would stop dead-reckoning for its queries until the next lease
    // renewal.
    const int home = focal_home_.Find(request.oid);
    if (home >= 0) {
      CountOp(home, kOpEntryTouch);
      const FotEntry* focal = shards_[home]->FindFocal(request.oid);
      if (focal != nullptr && !focal->queries.empty()) {
        SendDownlink(request.oid,
                     net::MakeMessage(net::FocalNotification{
                         request.oid, focal->queries.front()}));
      }
    }
  }
  // Queries that should cover the object's current cell per the RQI. The
  // client re-checks filter and cell on install, so over-sending is safe.
  std::vector<QueryId>& expected = reconcile_expected_;
  expected.clear();
  const std::vector<QueryId>& cell_row = QueriesForCell(request.cell);
  ChargeHeat(obs::HeatMap::kRqiScan, request.cell, cell_row.size());
  for (QueryId qid : cell_row) {
    const int home = qid_home_.Find(qid);
    CountOp(home, kOpEntryTouch);
    if (shards_[home]->FindQuery(qid)->focal_oid != request.oid) {
      expected.push_back(qid);
    }
  }
  std::sort(expected.begin(), expected.end());
  std::vector<QueryId>& known = reconcile_known_;
  known.assign(request.known_qids.begin(), request.known_qids.end());
  std::sort(known.begin(), known.end());

  std::vector<QueryId> missing;
  std::set_difference(expected.begin(), expected.end(), known.begin(),
                      known.end(), std::back_inserter(missing));
  std::vector<QueryId> stale;
  std::set_difference(known.begin(), known.end(), expected.begin(),
                      expected.end(), std::back_inserter(stale));

  // Resynchronize result membership from the client's own view: what it
  // holds is the ground truth for its containment bits, and flips reported
  // while it was unreachable are lost for good.
  std::unordered_set<QueryId> targets(request.target_qids.begin(),
                                      request.target_qids.end());
  for (QueryId qid : request.known_qids) {
    SqtEntry* entry = MutableQuery(qid);
    if (entry == nullptr) continue;
    CountOp(qid_home_.Find(qid), kOpResultFlip);
    if (targets.contains(qid)) {
      entry->result.insert(request.oid);
      if (lifecycle_ != nullptr && !replaying_) {
        lifecycle_->ResolveIfPending(
            obs::LifecycleTracker::kInstallFirstResult,
            static_cast<uint64_t>(qid));
      }
    } else {
      entry->result.erase(request.oid);
    }
  }
  for (QueryId qid : stale) {
    SqtEntry* entry = MutableQuery(qid);
    if (entry != nullptr) {
      CountOp(qid_home_.Find(qid), kOpEntryTouch);
      entry->result.erase(request.oid);
    }
  }

  if (!missing.empty()) {
    net::NewQueriesNotification notification;
    notification.oid = request.oid;
    for (QueryId qid : missing) {
      const int home = qid_home_.Find(qid);
      CountOp(home, kOpEntryRead);
      notification.queries.push_back(
          BuildQueryInfo(*shards_[home], *shards_[home]->FindQuery(qid)));
    }
    SendDownlink(request.oid, net::MakeMessage(std::move(notification)));
  }
  if (!stale.empty()) {
    // One-to-one removal: only this object holds the stale entries.
    SendDownlink(request.oid,
                 net::MakeMessage(
                     net::QueryRemoveBroadcast{std::move(stale)}));
  }
}

QueryInfo ShardRouter::BuildQueryInfo(const ServerShard& home,
                                      const SqtEntry& entry) const {
  QueryInfo info;
  info.qid = entry.qid;
  info.focal_oid = entry.focal_oid;
  // Co-location invariant: the focal's FOT row is on the query's shard.
  const FotEntry& focal = home.fot().at(entry.focal_oid);
  info.focal = focal.state;
  info.region = entry.region;
  info.filter_threshold = entry.filter_threshold;
  info.mon_region = entry.mon_region;
  info.focal_max_speed = focal.max_speed;
  return info;
}

void ShardRouter::SendDownlink(ObjectId to, Message message) {
  if (replaying_) return;  // the original delivery happened before the crash
  TimerPause pause(load_timer_);  // delivery is the medium's work, not ours
  network_->SendDownlinkTo(to, std::move(message));
}

void ShardRouter::BroadcastToRegion(const geo::CellRange& region,
                                    const Message& message) {
  if (replaying_) return;  // see SendDownlink
  std::vector<BaseStationId> cover = bmap_->MinimalCover(region);
  // Computing the cover is server work; the per-station delivery below is
  // the wireless medium's (and the receivers'), so exclude it from the
  // server-load measurement. Per-shard downlinks merge here in a fixed
  // order: the router is the single funnel into the network, so the
  // emission sequence is the dispatch sequence, whatever the shard count.
  TimerPause pause(load_timer_);
  for (BaseStationId sid : cover) {
    network_->Broadcast(layout_->station(sid), message);
  }
}

Result<std::unordered_set<ObjectId>> ShardRouter::QueryResult(
    QueryId qid) const {
  const SqtEntry* entry = FindQuery(qid);
  if (entry == nullptr) return Status::NotFound("unknown query id");
  return entry->result;
}

const SqtEntry* ShardRouter::FindQuery(QueryId qid) const {
  const int home = qid_home_.Find(qid);
  return home < 0 ? nullptr : shards_[home]->FindQuery(qid);
}

const FotEntry* ShardRouter::FindFocal(ObjectId oid) const {
  const int home = focal_home_.Find(oid);
  return home < 0 ? nullptr : shards_[home]->FindFocal(oid);
}

void ShardRouter::Checkpoint() {
  if (store_ == nullptr) return;
  TimedSection timed(load_timer_);
  TimedSection step(step_timer_);
  store_->Install(EncodeImage());
}

Status ShardRouter::Restore(const Snapshot& store, size_t* replayed) {
  if (store.has_checkpoint()) {
    MOBIEYES_RETURN_NOT_OK(DecodeImage(store.checkpoint));
  }
  // Replay the logged uplinks through the normal dispatch with all sends
  // suppressed: the originals were delivered before the crash, and replay
  // must reproduce state, not traffic.
  replaying_ = true;
  std::vector<bool> consumed(store.wal.size(), false);
  size_t applied = 0;
  for (size_t k = 0; k < store.wal.size(); ++k) {
    if (consumed[k]) continue;
    const WalRecord& record = store.wal[k];
    if (record.message.type == net::MessageType::kQueryInstallRequest) {
      // A live install for an unknown focal object did a synchronous
      // kinematics round trip whose PositionVelocityReport was logged
      // *after* the install (nested dispatch). Replay cannot do the round
      // trip, so apply that report first, in the position the live run
      // effectively applied it.
      const auto& request =
          std::get<net::QueryInstallRequest>(record.message.payload);
      if (!focal_home_.contains(request.oid)) {
        for (size_t j = k + 1; j < store.wal.size(); ++j) {
          const WalRecord& later = store.wal[j];
          if (consumed[j] ||
              later.message.type !=
                  net::MessageType::kPositionVelocityReport ||
              std::get<net::PositionVelocityReport>(later.message.payload)
                      .oid != request.oid) {
            continue;
          }
          OnUplink(later.from, later.message);
          consumed[j] = true;
          ++applied;
          break;
        }
      }
    }
    OnUplink(record.from, record.message);
    ++applied;
  }
  replaying_ = false;
  if (replayed != nullptr) *replayed = applied;
  return Status::OK();
}

std::vector<uint8_t> ShardRouter::EncodeImage() const {
  std::vector<uint8_t> out;
  net::ByteWriter w(&out);
  const uint64_t epoch = map_.epoch();
  w.U32(kImageMagic);
  w.U16(epoch == 0 ? kImageVersion : kImageVersionEpoch);
  w.U16(0);  // reserved
  w.F64(now_);
  w.I64(next_qid_);
  if (epoch > 0) {
    w.U64(epoch);
    w.U32(static_cast<uint32_t>(num_shards()));
    std::vector<int32_t> owners;
    map_.AssignmentSnapshot(&owners);
    EncodeAssignment(owners, &out);
  }

  // Each shard encodes its slice in parallel (sorted within the shard);
  // shard key sets are disjoint, so a serial k-way merge by key emits the
  // same global sorted-key layout the monolith wrote — the image format is
  // shard-count-independent.
  const size_t n = static_cast<size_t>(num_shards());
  std::vector<ServerShard::ImageChunk> fot_chunks(n);
  std::vector<ServerShard::ImageChunk> sqt_chunks(n);
  // The dedup table rides along: shard k serializes the k-th contiguous
  // slice of the (already sorted) key order, so concatenating the parts
  // reproduces the serial ascending-oid encoding byte for byte.
  std::vector<std::vector<uint8_t>> seen_parts(n);
  ForEachShard("server.shard.checkpoint_encode", [&](int k) {
    fot_chunks[k] = shards_[k]->EncodeFotChunk();
    sqt_chunks[k] = shards_[k]->EncodeSqtChunk();
    const size_t lo = seen_order_.size() * static_cast<size_t>(k) / n;
    const size_t hi = seen_order_.size() * (static_cast<size_t>(k) + 1) / n;
    net::ByteWriter part(&seen_parts[k]);
    for (size_t i = lo; i < hi; ++i) {
      const ObjectId oid = seen_order_[i];
      const SeenSeqs& seen = seen_seqs_.at(oid);
      part.I64(oid);
      for (uint32_t seq : seen.ring) part.U32(seq);
      part.U8(static_cast<uint8_t>(seen.next));
    }
  });
  size_t total_bytes = out.size() + 3 * sizeof(uint32_t);
  for (size_t k = 0; k < n; ++k) {
    total_bytes += fot_chunks[k].bytes.size() + sqt_chunks[k].bytes.size() +
                   seen_parts[k].size();
  }
  out.reserve(total_bytes);
  auto merge = [&out,
                &w](const std::vector<ServerShard::ImageChunk>& chunks) {
    size_t total = 0;
    for (const auto& chunk : chunks) total += chunk.keys.size();
    w.U32(static_cast<uint32_t>(total));
    std::vector<size_t> pos(chunks.size(), 0);
    while (true) {
      int best = -1;
      for (size_t s = 0; s < chunks.size(); ++s) {
        if (pos[s] < chunks[s].keys.size() &&
            (best < 0 ||
             chunks[s].keys[pos[s]] < chunks[best].keys[pos[best]])) {
          best = static_cast<int>(s);
        }
      }
      if (best < 0) break;
      const ServerShard::ImageChunk& chunk = chunks[best];
      out.insert(out.end(),
                 chunk.bytes.begin() +
                     static_cast<ptrdiff_t>(chunk.offsets[pos[best]]),
                 chunk.bytes.begin() +
                     static_cast<ptrdiff_t>(chunk.offsets[pos[best] + 1]));
      ++pos[best];
    }
  };
  merge(fot_chunks);
  merge(sqt_chunks);

  w.U32(static_cast<uint32_t>(seen_seqs_.size()));
  for (const std::vector<uint8_t>& part : seen_parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Status ShardRouter::DecodeImage(const std::vector<uint8_t>& image) {
  net::ByteReader r(image.data(), image.size());
  if (r.U32() != kImageMagic) {
    return Status::InvalidArgument("checkpoint: bad magic number");
  }
  const uint16_t version = r.U16();
  if (version != kImageVersion && version != kImageVersionEpoch) {
    return Status::InvalidArgument("checkpoint: unsupported version");
  }
  r.U16();  // reserved

  for (auto& shard : shards_) shard->Clear();
  focal_home_.Clear();
  qid_home_.Clear();
  seen_seqs_.clear();
  seen_order_.clear();

  now_ = r.F64();
  next_qid_ = r.I64();
  // Every id below indexes a dense home table: bound them before any
  // table grows to cover one.
  if (r.ok() && (next_qid_ < 0 || next_qid_ > kMaxDenseId)) {
    return Status::InvalidArgument("checkpoint: query id counter out of range");
  }

  // Partition epoch first: the entries below re-home through map_.ShardOf,
  // which must already answer under the restored assignment.
  if (version == kImageVersionEpoch) {
    const uint64_t epoch = r.U64();
    const uint32_t stored_shards = r.U32();
    if (!r.ok() || epoch == 0 || stored_shards == 0) {
      return Status::InvalidArgument("checkpoint: malformed epoch header");
    }
    std::vector<int32_t> owners;
    size_t consumed = 0;
    const size_t off = image.size() - r.remaining();
    MOBIEYES_RETURN_NOT_OK(DecodeAssignment(
        image.data() + off, r.remaining(), static_cast<int>(stored_shards),
        &owners, &consumed));
    r.Skip(consumed);
    if (static_cast<int>(stored_shards) == num_shards() &&
        owners.size() == static_cast<size_t>(map_.cell_count())) {
      MOBIEYES_RETURN_NOT_OK(map_.SetAssignment(epoch, owners));
    } else {
      // N→M restore: the stored owner table indexes shards (or a grid)
      // this deployment does not have. Fall back to this deployment's seed
      // under the restored epoch counter, so entries re-home consistently
      // and later rebalances keep advancing the epoch.
      MOBIEYES_RETURN_NOT_OK(map_.SetAssignment(epoch, {}));
    }
  } else {
    // A version-1 image was written at epoch 0; reset any live assignment
    // so the restore lands exactly where the writer was.
    MOBIEYES_RETURN_NOT_OK(map_.SetAssignment(0, {}));
  }

  // Entries are homed by the *current* shard map, so a checkpoint written
  // by an N-shard deployment restores cleanly into an M-shard one.
  uint32_t fot_count = r.U32();
  for (uint32_t k = 0; k < fot_count && r.ok(); ++k) {
    ObjectId oid = r.I64();
    FotEntry entry;
    entry.state = r.State();
    entry.max_speed = r.F64();
    entry.cell = r.Cell();
    uint32_t num_queries = r.U32();
    for (uint32_t q = 0; q < num_queries && r.ok(); ++q) {
      entry.queries.push_back(r.I64());
    }
    if (r.ok()) {
      if (oid < 0 || oid >= kMaxDenseId) {
        return Status::InvalidArgument("checkpoint: focal object id range");
      }
      const int home = map_.ShardOf(entry.cell);
      if (!focal_home_.Insert(oid, home)) {
        return Status::InvalidArgument("checkpoint: duplicate focal object");
      }
      shards_[home]->fot().emplace(oid, std::move(entry));
    }
  }

  uint32_t sqt_count = r.U32();
  for (uint32_t k = 0; k < sqt_count && r.ok(); ++k) {
    SqtEntry entry;
    entry.qid = r.I64();
    entry.focal_oid = r.I64();
    entry.region = r.Region();
    entry.filter_threshold = r.F64();
    entry.curr_cell = r.Cell();
    entry.mon_region = r.Range();
    entry.expires_at = r.F64();
    entry.lease_renew_at = r.F64();
    uint32_t result_count = r.U32();
    for (uint32_t q = 0; q < result_count && r.ok(); ++q) {
      entry.result.insert(r.I64());
    }
    if (!r.ok()) break;
    if (entry.qid < 0 || entry.qid >= next_qid_) {
      return Status::InvalidArgument("checkpoint: query id range");
    }
    // The monitoring region indexes straight into the RQI matrix; a corrupt
    // range would walk out of bounds, so reject it before Add.
    if (entry.mon_region.i_lo > entry.mon_region.i_hi ||
        entry.mon_region.j_lo > entry.mon_region.j_hi ||
        !grid_->IsValid({entry.mon_region.i_lo, entry.mon_region.j_lo}) ||
        !grid_->IsValid({entry.mon_region.i_hi, entry.mon_region.j_hi})) {
      return Status::InvalidArgument(
          "checkpoint: monitoring region outside the grid");
    }
    // Queries home with their focal object (co-location invariant); an
    // orphan entry falls back to its current cell's shard.
    const int focal_home = focal_home_.Find(entry.focal_oid);
    const int home =
        focal_home >= 0 ? focal_home : map_.ShardOf(entry.curr_cell);
    if (!qid_home_.Insert(entry.qid, home)) {
      return Status::InvalidArgument("checkpoint: duplicate query id");
    }
    // RQI rows rebuild in image (sorted-qid) order on the owning shards —
    // the same per-row order the monolith's restore produced.
    for (int s : map_.ShardsIntersecting(entry.mon_region)) {
      shards_[s]->RqiAdd(entry.qid, entry.mon_region);
    }
    shards_[home]->sqt().emplace(entry.qid, std::move(entry));
  }

  uint32_t seen_count = r.U32();
  for (uint32_t k = 0; k < seen_count && r.ok(); ++k) {
    ObjectId oid = r.I64();
    SeenSeqs seen;
    for (size_t s = 0; s < seen.ring.size(); ++s) seen.ring[s] = r.U32();
    uint8_t next = r.U8();
    if (next >= seen.ring.size()) {
      return Status::InvalidArgument("checkpoint: dedup ring cursor range");
    }
    seen.next = next;
    // The image stores the table in ascending-oid order, so appending keeps
    // seen_order_ sorted.
    if (r.ok() && seen_seqs_.emplace(oid, seen).second) {
      seen_order_.push_back(oid);
    }
  }

  if (!r.ok() || r.remaining() != 0) {
    return Status::InvalidArgument("checkpoint: truncated or malformed image");
  }
  return Status::OK();
}

}  // namespace mobieyes::core

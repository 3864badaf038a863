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
// for the wrong layer. The image is global and in ascending id order —
// independent of the shard count, so any deployment can restore any
// checkpoint.
constexpr uint32_t kImageMagic = 0x4d6f4349;
constexpr uint16_t kImageVersion = 1;
// Version 2 = version 1 plus the live partition epoch (epoch counter, shard
// count and owner table) right after the next_qid field. Written only when
// the epoch is non-zero, so rebalance-off checkpoints stay byte-identical
// to version 1 — and shard-count-independent, as before.
constexpr uint16_t kImageVersionEpoch = 2;

// Modeled payload sizes of the coordinator backplane ops (DESIGN.md §10):
// what a multi-process deployment would put on the wire for each cross-shard
// interaction. Handoffs are charged at their real wire encoding instead.
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
    // Each worker accumulates into its own shard's Stats, so this is
    // race-free even when the pool runs workers concurrently.
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
  const SqtEntry* entry = sqt_.Find(qid);
  return entry == nullptr ? -1 : entry->home;
}

int ShardRouter::ShardOfFocal(ObjectId oid) const {
  const FotEntry* focal = fot_.Find(oid);
  return focal == nullptr ? -1 : focal->home;
}

ShardRouter::HomedRows ShardRouter::RowsHomedOn(int k) const {
  HomedRows rows;
  fot_.ForEachIn(0, fot_.id_end(), [&](ObjectId, const FotEntry& focal) {
    if (focal.home == k) ++rows.focals;
  });
  sqt_.ForEachIn(0, sqt_.id_end(), [&](QueryId, const SqtEntry& entry) {
    if (entry.home == k) ++rows.queries;
  });
  return rows;
}

const std::vector<QueryId>& ShardRouter::QueriesForCell(
    const geo::CellCoord& cell) const {
  return shards_[map_.ShardOf(cell)]->QueriesForCell(cell);
}

int ShardRouter::MigrateIfNeeded(ObjectId oid, FotEntry& focal) {
  const int from = focal.home;
  const int target = map_.ShardOf(focal.cell);
  if (target == from) return from;

  // The focal crossed a partition boundary: its FOT row and every query
  // bound to it change home together, so the co-location invariant holds.
  // The handoff is charged to the coordinator backplane at the wire size of
  // the message a multi-process deployment would send; it never touches the
  // wireless medium, so clients cannot observe the shard layout.
  if (!replaying_) {
    ++backplane_.messages;
    ++backplane_.handoffs;
    backplane_.bytes += net::WireSizeBytes(HandoffMessage(oid, focal, target));
    // Layout-dependent by nature (no handoffs with one shard), so the
    // handoffs channel and handoff kind are excluded from deterministic
    // exports.
    ChargeHeat(obs::HeatMap::kHandoffs, focal.cell, 1);
    if (lifecycle_ != nullptr) {
      lifecycle_->Stamp(obs::LifecycleTracker::kHandoff,
                        static_cast<uint64_t>(oid));
    }
  }
  for (QueryId qid : focal.queries) {
    if (SqtEntry* entry = sqt_.Find(qid)) entry->home = target;
  }
  focal.home = target;
  ++shards_[from]->stats().handoffs_out;
  ++shards_[target]->stats().handoffs_in;
  if (lifecycle_ != nullptr && !replaying_) {
    // Ownership transferred within the dispatch: a same-step (latency 0)
    // round, recorded so handoff volume shows up in the lifecycle table.
    lifecycle_->ResolveIfPending(obs::LifecycleTracker::kHandoff,
                                 static_cast<uint64_t>(oid));
  }
  return target;
}

net::Message ShardRouter::HandoffMessage(ObjectId oid, const FotEntry& focal,
                                         int to_shard) const {
  net::ShardHandoff handoff;
  handoff.from_shard = focal.home;
  handoff.to_shard = to_shard;
  handoff.oid = oid;
  handoff.state = focal.state;
  handoff.max_speed = focal.max_speed;
  handoff.cell = focal.cell;
  for (QueryId qid : focal.queries) {
    const SqtEntry* entry = sqt_.Find(qid);
    if (entry == nullptr) continue;
    net::ShardQueryState q;
    q.qid = entry->qid;
    q.focal_oid = entry->focal_oid;
    q.region = entry->region;
    q.filter_threshold = entry->filter_threshold;
    q.curr_cell = entry->curr_cell;
    q.mon_region = entry->mon_region;
    q.expires_at = entry->expires_at;
    q.lease_renew_at = entry->lease_renew_at;
    q.result.assign(entry->result.begin(), entry->result.end());
    handoff.queries.push_back(std::move(q));
  }
  return net::MakeMessage(std::move(handoff));
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
  // ordinary handoff path, in ascending oid order (the FOT's order), which
  // fixes the handoff sequence and everything accounted along it.
  uint64_t focals_moved = 0;
  fot_.ForEachIn(0, fot_.id_end(), [&](ObjectId oid, FotEntry& focal) {
    const int before = focal.home;
    if (MigrateIfNeeded(oid, focal) != before) ++focals_moved;
  });

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
  // completes (and fills the FOT) before the call below returns. (During
  // WAL replay the round trip is suppressed; Restore pre-applies the logged
  // PositionVelocityReport instead.)
  if (fot_.Find(focal_oid) == nullptr) {
    SendDownlink(focal_oid,
                 net::MakeMessage(net::PositionVelocityRequest{focal_oid}));
  }
  FotEntry* focal = fot_.Find(focal_oid);
  if (focal == nullptr) {
    return Status::NotFound("focal object did not report its position");
  }
  if (next_qid_ >= kMaxDenseId) {
    return Status::OutOfRange("query id space exhausted");
  }
  // Installation executes on the focal's home shard.
  ctx_shard_ = focal->home;

  // §3.3 step 4: create the SQT entry and index it in the RQI.
  QueryId qid = next_qid_++;
  SqtEntry& entry = *sqt_.Insert(qid);
  entry.home = focal->home;
  entry.qid = qid;
  entry.focal_oid = focal_oid;
  entry.region = region;
  entry.filter_threshold = filter_threshold;
  entry.curr_cell = focal->cell;
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
  focal->queries.push_back(qid);
  ChargeHeat(obs::HeatMap::kInstalls, entry.curr_cell, 1);
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
  broadcast.queries.push_back(BuildQueryInfo(entry));
  BroadcastToRegion(entry.mon_region, net::MakeMessage(std::move(broadcast)));
  return qid;
}

void ShardRouter::ScanDueQueries(const char* span_name,
                                 Seconds SqtEntry::*deadline) {
  std::vector<std::vector<QueryId>>& parts = scan_parts_;
  parts.resize(static_cast<size_t>(num_shards()));
  TimedSection timed(load_timer_);
  TimedSection step(step_timer_);
  ForEachShard(span_name, [&](int k) {
    std::vector<QueryId>& part = parts[static_cast<size_t>(k)];
    part.clear();
    const auto [lo, hi] = IdSlice(k, sqt_.id_end());
    sqt_.ForEachIn(lo, hi, [&](QueryId qid, const SqtEntry& entry) {
      if (entry.*deadline <= now_) part.push_back(qid);
    });
  });
  scan_merged_.clear();
  for (const auto& part : parts) {
    scan_merged_.insert(scan_merged_.end(), part.begin(), part.end());
  }
}

void ShardRouter::AdvanceTime(Seconds now) {
  TRACE_SPAN(trace_, "server.advance_time");
  now_ = now;
  // Ascending qid order, so removal-broadcast order is independent of the
  // shard count.
  ScanDueQueries("server.shard.expiry_scan", &SqtEntry::expires_at);
  for (QueryId qid : scan_merged_) {
    (void)RemoveQuery(qid);
  }
  if (options_.lease_duration > 0.0) RenewLeases();
}

void ShardRouter::RenewLeases() {
  // Ascending qid order fixes the broadcast order (and hence any
  // fault-injection draw sequence downstream).
  ScanDueQueries("server.shard.lease_scan", &SqtEntry::lease_renew_at);
  for (QueryId qid : scan_merged_) {
    SqtEntry& entry = *sqt_.Find(qid);
    ctx_shard_ = entry.home;
    entry.lease_renew_at = now_ + options_.lease_duration;
    // Re-assert hasMQ on the focal object (a lost FocalNotification would
    // otherwise silence its dead reckoning forever), then refresh the
    // monitoring region. QueryUpdateBroadcast is idempotent on receivers:
    // they install, update or drop based on their own cell.
    SendDownlink(entry.focal_oid,
                 net::MakeMessage(net::FocalNotification{entry.focal_oid,
                                                         qid}));
    net::QueryUpdateBroadcast broadcast;
    broadcast.queries.push_back(BuildQueryInfo(entry));
    BroadcastToRegion(entry.mon_region,
                      net::MakeMessage(std::move(broadcast)));
  }
}

Status ShardRouter::RemoveQuery(QueryId qid) {
  TimedSection timed(load_timer_);
  SqtEntry* row = sqt_.Find(qid);
  if (row == nullptr) return Status::NotFound("unknown query id");
  ctx_shard_ = row->home;
  const ObjectId focal_oid = row->focal_oid;
  const geo::CellRange mon_region = row->mon_region;
  sqt_.Erase(qid);
  RqiRemoveAll(qid, mon_region);
  if (lifecycle_ != nullptr && !replaying_) {
    // A query removed before any target reported cancels its open
    // install->first-result round (counted, not leaked).
    lifecycle_->Drop(obs::LifecycleTracker::kInstallFirstResult,
                     static_cast<uint64_t>(qid));
  }

  if (FotEntry* focal = fot_.Find(focal_oid)) {
    auto& queries = focal->queries;
    queries.erase(std::find(queries.begin(), queries.end(), qid));
    if (queries.empty()) {
      // No query bound to this object anymore: clear its hasMQ flag (and
      // drop it from the FOT — nothing left to mediate for it).
      SendDownlink(focal_oid, net::MakeMessage(net::FocalNotification{
                                  focal_oid, kInvalidQueryId}));
      fot_.Erase(focal_oid);
    }
  }

  net::QueryRemoveBroadcast broadcast;
  broadcast.qids.push_back(qid);
  BroadcastToRegion(mon_region, net::MakeMessage(std::move(broadcast)));
  return Status::OK();
}

int ShardRouter::IngressShard(const Message& message) const {
  if (num_shards() == 1) return 0;
  switch (message.type) {
    case net::MessageType::kQueryInstallRequest: {
      const auto& p = std::get<net::QueryInstallRequest>(message.payload);
      return std::max(ShardOfFocal(p.oid), 0);
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
        if (const SqtEntry* entry = sqt_.Find(qid)) return entry->home;
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
  // processed, and any from an out-of-range sender.
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
  // The dedup table is indexed by sender: a sender id no world can hold is
  // dropped unacknowledged rather than growing it (this also covers WAL
  // replay of a hostile log).
  if (from < 0 || from >= kMaxDenseId) return true;
  SeenSeqs* row = seen_.Find(from);
  SeenSeqs& seen = row != nullptr ? *row : *seen_.Insert(from);
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
  // The FOT is indexed by oid: an id no world can hold is ignored (this
  // also covers WAL replay of a hostile log).
  if (report.oid < 0 || report.oid >= kMaxDenseId) return;
  FotEntry* entry = fot_.Find(report.oid);
  if (entry == nullptr) {
    // New focal object: home it on its reported cell's shard (the ingress).
    entry = fot_.Insert(report.oid);
    entry->home = map_.ShardOf(grid_->CellOf(report.state.pos));
  } else {
    CountOp(entry->home, kOpReportForward);
  }
  entry->state = report.state;
  entry->max_speed = report.max_speed;
  entry->cell = grid_->CellOf(report.state.pos);
  (void)MigrateIfNeeded(report.oid, *entry);
}

void ShardRouter::HandleVelocityChange(
    const net::VelocityChangeReport& report) {
  FotEntry* focal_ptr = fot_.Find(report.oid);
  if (focal_ptr == nullptr) return;  // stale report, unbound object
  CountOp(focal_ptr->home, kOpReportForward);
  // A delayed or retransmitted report can arrive after a newer one; relaying
  // the older vector would roll every monitoring region's prediction back.
  if (report.state.tm < focal_ptr->state.tm) return;
  focal_ptr->state = report.state;
  focal_ptr->cell = grid_->CellOf(report.state.pos);
  (void)MigrateIfNeeded(report.oid, *focal_ptr);
  const FotEntry& focal = *focal_ptr;

  // §3.4: relay the new vector to the monitoring region of each query bound
  // to this focal object. Groupable queries sharing a monitoring region are
  // served by a single broadcast (§4.1); without grouping each query gets
  // its own broadcast as in the base protocol.
  const bool lazy = options_.propagation == PropagationMode::kLazy;
  if (options_.enable_query_grouping) {
    std::map<std::tuple<int32_t, int32_t, int32_t, int32_t>,
             std::vector<QueryId>>
        by_region;
    for (QueryId qid : focal.queries) {
      const SqtEntry& entry = *sqt_.Find(qid);
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
          broadcast.queries.push_back(BuildQueryInfo(*sqt_.Find(qid)));
        }
      }
      BroadcastToRegion(region, net::MakeMessage(std::move(broadcast)));
    }
  } else {
    for (QueryId qid : focal.queries) {
      const SqtEntry& entry = *sqt_.Find(qid);
      net::VelocityChangeBroadcast broadcast;
      broadcast.focal_oid = report.oid;
      broadcast.state = report.state;
      if (lazy) {
        broadcast.carries_query_info = true;
        broadcast.queries.push_back(BuildQueryInfo(entry));
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
      const SqtEntry& entry = *sqt_.Find(qid);
      CountOp(entry.home, kOpEntryTouch);
      return entry.focal_oid == report.oid;
    });
    if (!new_qids.empty()) {
      net::NewQueriesNotification notification;
      notification.oid = report.oid;
      for (QueryId qid : new_qids) {
        const SqtEntry& entry = *sqt_.Find(qid);
        CountOp(entry.home, kOpEntryRead);
        notification.queries.push_back(BuildQueryInfo(entry));
      }
      SendDownlink(report.oid, net::MakeMessage(std::move(notification)));
    }
  }

  // Additional operations when the mover is a focal object: recompute each
  // bound query's monitoring region and notify the union of the old and new
  // regions. The focal (and its queries) first re-home to the new cell's
  // shard — which is the ingress shard — if a partition boundary was
  // crossed.
  FotEntry* focal = fot_.Find(report.oid);
  if (focal == nullptr) return;
  focal->cell = report.new_cell;
  (void)MigrateIfNeeded(report.oid, *focal);

  // Group queries that share both old and new monitoring regions into one
  // broadcast (matching monitoring regions, §4.1).
  std::map<std::tuple<int32_t, int32_t, int32_t, int32_t, int32_t, int32_t,
                      int32_t, int32_t>,
           std::vector<QueryId>>
      by_region_pair;
  for (QueryId qid : focal->queries) {
    SqtEntry& entry = *sqt_.Find(qid);
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
      broadcast.queries.push_back(BuildQueryInfo(entry));
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
      broadcast.queries.push_back(BuildQueryInfo(*sqt_.Find(qid)));
    }
    BroadcastToRegion(geo::CellRange::Union(old_region, new_region),
                      net::MakeMessage(std::move(broadcast)));
  }
}

void ShardRouter::HandleResultBitmap(const net::ResultBitmapReport& report) {
  for (size_t k = 0; k < report.qids.size(); ++k) {
    SqtEntry* entry = sqt_.Find(report.qids[k]);
    if (entry == nullptr) continue;
    CountOp(entry->home, kOpResultFlip);
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
    for (int s = 0; s < num_shards(); ++s) CountOp(s, net::kIdBytes);
    sqt_.ForEachIn(0, sqt_.id_end(), [&](QueryId, SqtEntry& entry) {
      entry.result.erase(request.oid);
    });
    // A restarted focal object also lost hasMQ; without this repair it
    // would stop dead-reckoning for its queries until the next lease
    // renewal.
    if (const FotEntry* focal = fot_.Find(request.oid)) {
      CountOp(focal->home, kOpEntryTouch);
      if (!focal->queries.empty()) {
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
    const SqtEntry& entry = *sqt_.Find(qid);
    CountOp(entry.home, kOpEntryTouch);
    if (entry.focal_oid != request.oid) expected.push_back(qid);
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
    SqtEntry* entry = sqt_.Find(qid);
    if (entry == nullptr) continue;
    CountOp(entry->home, kOpResultFlip);
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
    if (SqtEntry* entry = sqt_.Find(qid)) {
      CountOp(entry->home, kOpEntryTouch);
      entry->result.erase(request.oid);
    }
  }

  if (!missing.empty()) {
    net::NewQueriesNotification notification;
    notification.oid = request.oid;
    for (QueryId qid : missing) {
      const SqtEntry& entry = *sqt_.Find(qid);
      CountOp(entry.home, kOpEntryRead);
      notification.queries.push_back(BuildQueryInfo(entry));
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

QueryInfo ShardRouter::BuildQueryInfo(const SqtEntry& entry) const {
  QueryInfo info;
  info.qid = entry.qid;
  info.focal_oid = entry.focal_oid;
  const FotEntry& focal = *fot_.Find(entry.focal_oid);
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
  return sqt_.Find(qid);
}

const FotEntry* ShardRouter::FindFocal(ObjectId oid) const {
  return fot_.Find(oid);
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
      if (fot_.Find(request.oid) == nullptr) {
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

  // Worker k encodes the k-th id slice of each table; the tables are
  // indexed by id, so concatenating the parts in worker order yields the
  // ascending-id image whatever the shard count.
  const size_t n = static_cast<size_t>(num_shards());
  std::vector<std::vector<uint8_t>> fot_parts(n);
  std::vector<std::vector<uint8_t>> sqt_parts(n);
  std::vector<std::vector<uint8_t>> seen_parts(n);
  ForEachShard("server.shard.checkpoint_encode", [&](int k) {
    net::ByteWriter fw(&fot_parts[static_cast<size_t>(k)]);
    const auto [fot_lo, fot_hi] = IdSlice(k, fot_.id_end());
    fot_.ForEachIn(fot_lo, fot_hi, [&](ObjectId oid, const FotEntry& entry) {
      fw.I64(oid);
      fw.State(entry.state);
      fw.F64(entry.max_speed);
      fw.Cell(entry.cell);
      // The bound-query list keeps its live order: broadcast order during
      // velocity relays follows it.
      fw.U32(static_cast<uint32_t>(entry.queries.size()));
      for (QueryId qid : entry.queries) fw.I64(qid);
    });
    net::ByteWriter qw(&sqt_parts[static_cast<size_t>(k)]);
    std::vector<ObjectId> result;
    const auto [sqt_lo, sqt_hi] = IdSlice(k, sqt_.id_end());
    sqt_.ForEachIn(sqt_lo, sqt_hi, [&](QueryId, const SqtEntry& entry) {
      qw.I64(entry.qid);
      qw.I64(entry.focal_oid);
      qw.Region(entry.region);
      qw.F64(entry.filter_threshold);
      qw.Cell(entry.curr_cell);
      qw.Range(entry.mon_region);
      qw.F64(entry.expires_at);
      qw.F64(entry.lease_renew_at);
      result.assign(entry.result.begin(), entry.result.end());
      std::sort(result.begin(), result.end());
      qw.U32(static_cast<uint32_t>(result.size()));
      for (ObjectId oid : result) qw.I64(oid);
    });
    net::ByteWriter sw(&seen_parts[static_cast<size_t>(k)]);
    const auto [seen_lo, seen_hi] = IdSlice(k, seen_.id_end());
    seen_.ForEachIn(seen_lo, seen_hi, [&](ObjectId oid, const SeenSeqs& seen) {
      sw.I64(oid);
      for (uint32_t seq : seen.ring) sw.U32(seq);
      sw.U8(static_cast<uint8_t>(seen.next));
    });
  });
  auto section = [&w](size_t rows,
                      const std::vector<std::vector<uint8_t>>& parts) {
    w.U32(static_cast<uint32_t>(rows));
    for (const std::vector<uint8_t>& part : parts) w.Bytes(part);
  };
  section(fot_.size(), fot_parts);
  section(sqt_.size(), sqt_parts);
  section(seen_.size(), seen_parts);
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
  fot_.Clear();
  sqt_.Clear();
  seen_.Clear();

  now_ = r.F64();
  next_qid_ = r.I64();
  // Every id below indexes a dense table: bound them before any table
  // grows to cover one.
  if (r.ok() && (next_qid_ < 0 || next_qid_ > kMaxDenseId)) {
    return Status::InvalidArgument("checkpoint: query id counter out of range");
  }

  // Partition epoch first: the rows below re-home through map_.ShardOf,
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
      // under the restored epoch counter, so rows re-home consistently
      // and later rebalances keep advancing the epoch.
      MOBIEYES_RETURN_NOT_OK(map_.SetAssignment(epoch, {}));
    }
  } else {
    // A version-1 image was written at epoch 0; reset any live assignment
    // so the restore lands exactly where the writer was.
    MOBIEYES_RETURN_NOT_OK(map_.SetAssignment(0, {}));
  }

  // Rows are homed by the *current* shard map, so a checkpoint written by
  // an N-shard deployment restores cleanly into an M-shard one.
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
      FotEntry* row = fot_.Insert(oid);
      if (row == nullptr) {
        return Status::InvalidArgument("checkpoint: duplicate focal object");
      }
      entry.home = map_.ShardOf(entry.cell);
      *row = std::move(entry);
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
    // Handlers follow FOT <-> SQT bindings without checks, so the image
    // must bind each query to a focal object that lists it exactly once
    // (the total below rules out FOT entries naming other qids). Queries
    // home with their focal object (co-location invariant).
    const FotEntry* focal = fot_.Find(entry.focal_oid);
    const auto listings =
        focal == nullptr ? 0 : std::ranges::count(focal->queries, entry.qid);
    if (listings != 1) {
      return Status::InvalidArgument("checkpoint: query not bound to focal");
    }
    entry.home = focal->home;
    SqtEntry* row = sqt_.Insert(entry.qid);
    if (row == nullptr) {
      return Status::InvalidArgument("checkpoint: duplicate query id");
    }
    // RQI rows rebuild in image (ascending-qid) order on the owning shards
    // — the same per-row order the monolith's restore produced.
    for (int s : map_.ShardsIntersecting(entry.mon_region)) {
      shards_[s]->RqiAdd(entry.qid, entry.mon_region);
    }
    *row = std::move(entry);
  }
  size_t total_listings = 0;
  fot_.ForEachIn(0, fot_.id_end(), [&](ObjectId, const FotEntry& focal) {
    total_listings += focal.queries.size();
  });
  if (r.ok() && total_listings != sqt_.size()) {
    return Status::InvalidArgument("checkpoint: focal lists unknown queries");
  }

  uint32_t seen_count = r.U32();
  for (uint32_t k = 0; k < seen_count && r.ok(); ++k) {
    ObjectId oid = r.I64();
    SeenSeqs seen;
    for (size_t s = 0; s < seen.ring.size(); ++s) seen.ring[s] = r.U32();
    uint8_t next = r.U8();
    if (!r.ok()) break;
    if (next >= seen.ring.size()) {
      return Status::InvalidArgument("checkpoint: dedup ring cursor range");
    }
    seen.next = next;
    if (oid < 0 || oid >= kMaxDenseId) {
      return Status::InvalidArgument("checkpoint: dedup sender id range");
    }
    SeenSeqs* row = seen_.Insert(oid);
    if (row == nullptr) {
      return Status::InvalidArgument("checkpoint: duplicate dedup sender");
    }
    *row = seen;
  }

  if (!r.ok() || r.remaining() != 0) {
    return Status::InvalidArgument("checkpoint: truncated or malformed image");
  }
  return Status::OK();
}

}  // namespace mobieyes::core

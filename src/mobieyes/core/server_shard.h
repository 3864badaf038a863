#ifndef MOBIEYES_CORE_SERVER_SHARD_H_
#define MOBIEYES_CORE_SERVER_SHARD_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/status.h"
#include "mobieyes/common/units.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/rqi.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/net/message.h"

namespace mobieyes::core {

inline constexpr Seconds kNeverExpires =
    std::numeric_limits<Seconds>::infinity();

// FOT row (paper §3.2): last reported kinematics of a focal object plus
// the queries bound to it.
struct FotEntry {
  net::FocalState state;
  double max_speed = 0.0;  // miles/second, carried for safe periods
  // Last known grid cell, kept current by cell-change reports. The
  // recorded kinematics must stay untouched between velocity reports or
  // dead-reckoning predictions downstream would diverge.
  geo::CellCoord cell;
  std::vector<QueryId> queries;
};

// SQT row (paper §3.2) plus the expiry time: the paper's example queries
// are time-bounded ("during next 2 hours"), so a query may carry a
// duration after which the server uninstalls it everywhere.
struct SqtEntry {
  QueryId qid = kInvalidQueryId;
  ObjectId focal_oid = kInvalidObjectId;
  geo::QueryRegion region;
  double filter_threshold = 1.0;
  geo::CellCoord curr_cell;
  geo::CellRange mon_region;
  Seconds expires_at = kNeverExpires;
  // Soft-state lease (options.lease_duration > 0): when the deadline
  // passes, the server re-broadcasts the query's monitoring-region state
  // so clients that missed the original install or update recover.
  Seconds lease_renew_at = std::numeric_limits<Seconds>::infinity();
  std::unordered_set<ObjectId> result;
};

// One cell reassignment of a rebalance step: grid cell `flat` (row-major
// flat index) moves to shard `to_shard`.
struct CellMove {
  int32_t flat = 0;
  int32_t to_shard = 0;

  bool operator==(const CellMove& other) const {
    return flat == other.flat && to_shard == other.to_shard;
  }
};

// Versioned grid-to-shard assignment (DESIGN.md §10, §15). Epoch 0 is the
// seed partition — a pure function of the grid shape and the sharding
// options, so every component (router, shards, a restore with a different
// shard count) derives the same ownership. Rebalancing advances the epoch
// and installs an explicit per-cell owner table on top of the seed; the
// epoch number travels with checkpoints, so a restore never answers for a
// cell under a stale assignment.
class ShardMap {
 public:
  ShardMap(const geo::Grid& grid, const ShardingOptions& options);

  int num_shards() const { return num_shards_; }
  ShardPartition partition() const { return partition_; }
  uint64_t epoch() const { return epoch_; }

  // Owning shard of a grid cell, in [0, num_shards). The epoch-0 fast
  // paths are byte-for-byte the frozen-partition formulas, so runs without
  // rebalancing are unchanged.
  int ShardOf(const geo::CellCoord& cell) const {
    if (num_shards_ == 1) return 0;
    if (epoch_ > 0) {
      return owner_[static_cast<size_t>(cell.j) *
                        static_cast<size_t>(columns_) +
                    static_cast<size_t>(cell.i)];
    }
    if (partition_ == ShardPartition::kRowBand) {
      return std::min(cell.j / band_rows_, num_shards_ - 1);
    }
    return static_cast<int>(geo::CellCoordHash{}(cell) %
                            static_cast<size_t>(num_shards_));
  }

  // Shards owning at least one cell of `range`, ascending. Row-band
  // partitions answer exactly from the row interval; the hash partition
  // (and any epoch > 0 assignment) enumerates the range's cells — or
  // reports every shard for a range too large to be worth walking.
  std::vector<int> ShardsIntersecting(const geo::CellRange& range) const;

  // Epoch-0 owner of a flat cell index (the seed assignment).
  int SeedOwner(int64_t flat) const;

  // Materializes the current assignment (explicit table, or the seed at
  // epoch 0) into *out, one owner per flat cell index.
  void AssignmentSnapshot(std::vector<int32_t>* out) const;

  // Installs an explicit assignment at `epoch`. An empty `owners` resets
  // the table to the seed partition while keeping the epoch counter — the
  // N→M restore path, where a stored owner table indexes shards the new
  // deployment does not have. Fails when `owners` is non-empty but does
  // not cover every cell with a valid shard id.
  Status SetAssignment(uint64_t epoch, const std::vector<int32_t>& owners);

  // Applies a move set on top of the current assignment and advances to
  // `new_epoch` (must be greater than the current epoch).
  Status ApplyMoves(uint64_t new_epoch, const std::vector<CellMove>& moves);

  int64_t cell_count() const { return cell_count_; }

 private:
  int num_shards_;
  ShardPartition partition_;
  int32_t band_rows_;  // rows per shard band (row-band partitioning)
  int32_t columns_;
  int64_t cell_count_;
  uint64_t epoch_ = 0;
  // Explicit per-cell owners; sized cell_count_ whenever epoch_ > 0.
  std::vector<int32_t> owner_;
};

// Run-length codec for an explicit owner table (partition epochs travel in
// checkpoint images and shard-config frames). Encode appends to *out;
// Decode consumes exactly the encoded bytes from a reader-owned buffer and
// fails on truncation or owner ids outside [0, num_shards).
void EncodeAssignment(const std::vector<int32_t>& owners,
                      std::vector<uint8_t>* out);
Status DecodeAssignment(const uint8_t* data, size_t size, int num_shards,
                        std::vector<int32_t>* owners, size_t* consumed);

// One grid partition's slice of the server state: the FOT/SQT entries homed
// on its cells and the RQI rows of the cells it owns. A shard is a passive
// state container plus the scans that parallelize across shards — all
// orchestration (uplink dispatch, broadcasts, cross-shard reads) lives in
// the ShardRouter, which is what keeps a multi-shard run's observable
// behavior identical to the monolith.
class ServerShard {
 public:
  // Per-shard operational counters, exported as shard_id-tagged gauges
  // (timing-flagged: operational visibility, excluded from deterministic
  // metric exports, which must not vary with the shard count).
  struct Stats {
    uint64_t uplinks_routed = 0;  // uplinks whose ingress shard was this one
    uint64_t handoffs_in = 0;
    uint64_t handoffs_out = 0;
    // Step-phase wall time spent on this shard's scans. The max across
    // shards is the critical path of a perfectly parallel step, which is
    // how the shard bench reports speedup independently of how many
    // hardware threads the measuring machine happens to have.
    uint64_t step_micros = 0;
  };

  // Checkpoint fragment: this shard's table entries, encoded per entry in
  // ascending key order. The router k-way merges fragments from all shards
  // into the global sorted-key image — byte-identical to the monolith's.
  struct ImageChunk {
    std::vector<int64_t> keys;    // ascending
    std::vector<size_t> offsets;  // keys.size() + 1 offsets into bytes
    std::vector<uint8_t> bytes;
  };

  ServerShard(int shard_id, const geo::Grid& grid, const ShardMap& map)
      : shard_id_(shard_id), grid_(&grid), map_(&map), rqi_(grid) {}

  int shard_id() const { return shard_id_; }
  bool OwnsCell(const geo::CellCoord& cell) const {
    return map_->ShardOf(cell) == shard_id_;
  }

  // --- State tables (mutated only by the router, serially) -----------------

  std::unordered_map<ObjectId, FotEntry>& fot() { return fot_; }
  const std::unordered_map<ObjectId, FotEntry>& fot() const { return fot_; }
  std::unordered_map<QueryId, SqtEntry>& sqt() { return sqt_; }
  const std::unordered_map<QueryId, SqtEntry>& sqt() const { return sqt_; }

  FotEntry* FindFocal(ObjectId oid);
  const FotEntry* FindFocal(ObjectId oid) const;
  SqtEntry* FindQuery(QueryId qid);
  const SqtEntry* FindQuery(QueryId qid) const;

  // --- RQI slice -----------------------------------------------------------
  // Full-grid-shaped index populated only on owned cells. Registration is
  // filtered per cell, preserving the monolith's per-row insertion order
  // (rows are independent, so filtering cannot reorder within a row).

  void RqiAdd(QueryId qid, const geo::CellRange& mon_region);
  void RqiRemove(QueryId qid, const geo::CellRange& mon_region);
  const std::vector<QueryId>& QueriesForCell(const geo::CellCoord& c) const {
    return rqi_.QueriesForCell(c);
  }
  const ReverseQueryIndex& rqi() const { return rqi_; }

  // Whole-row transfer for partition rebalancing (DESIGN.md §15): when a
  // cell changes owner, its RQI row moves verbatim — order preserved, since
  // row order drives broadcast order. TakeRqiRow detaches and returns the
  // row (leaving it empty); SetRqiRow installs a row on the new owner.
  std::vector<QueryId> TakeRqiRow(const geo::CellCoord& c) {
    return rqi_.TakeRow(c);
  }
  void SetRqiRow(const geo::CellCoord& c, std::vector<QueryId> row) {
    rqi_.SetRow(c, std::move(row));
  }

  // --- Step-phase scans (read-only; safe to run concurrently per shard) ----

  void CollectExpired(Seconds now, std::vector<QueryId>* out) const;
  void CollectLeaseDue(Seconds now, std::vector<QueryId>* out) const;

  // --- Ownership handoff (DESIGN.md §10) -----------------------------------

  // Detaches a focal object and every query bound to it into a handoff
  // message for `to_shard`. RQI rows stay put — they are keyed by cell, not
  // by owner, so a handoff moves table entries only.
  net::ShardHandoff ExtractFocal(ObjectId oid, int to_shard);

  // Installs a handoff's FOT row and SQT entries into this shard,
  // preserving the binding order carried by the message.
  void AdoptFocal(net::ShardHandoff handoff);

  // --- Checkpointing -------------------------------------------------------

  ImageChunk EncodeFotChunk() const;
  ImageChunk EncodeSqtChunk() const;

  // Drops all state (checkpoint decode starts from empty shards).
  void Clear();

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

 private:
  int shard_id_;
  const geo::Grid* grid_;
  const ShardMap* map_;

  std::unordered_map<ObjectId, FotEntry> fot_;
  std::unordered_map<QueryId, SqtEntry> sqt_;
  ReverseQueryIndex rqi_;
  Stats stats_;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SERVER_SHARD_H_

#include "mobieyes/core/server_shard.h"

#include <algorithm>
#include <utility>

#include "mobieyes/net/codec.h"

namespace mobieyes::core {

ShardMap::ShardMap(const geo::Grid& grid, const ShardingOptions& options)
    : num_shards_(std::max(1, options.num_shards)),
      columns_(grid.columns()),
      cell_count_(grid.CellCount()) {
  band_rows_ = (grid.rows() + num_shards_ - 1) / num_shards_;
  if (band_rows_ < 1) band_rows_ = 1;
}

std::vector<int> ShardMap::ShardsIntersecting(
    const geo::CellRange& range) const {
  std::vector<int> shards;
  if (range.empty()) return shards;
  if (num_shards_ == 1) {
    shards.push_back(0);
    return shards;
  }
  if (epoch_ == 0) {
    // Band ownership is monotone in j, so the row interval maps to a
    // contiguous shard interval.
    int lo = ShardOf({range.i_lo, range.j_lo});
    int hi = ShardOf({range.i_lo, range.j_hi});
    for (int s = lo; s <= hi; ++s) shards.push_back(s);
    return shards;
  }
  // A rebalanced epoch: a monitoring region is a handful of cells, so
  // walking it is cheap; a huge range is conservatively owned by everyone.
  constexpr int64_t kWalkLimit = 256;
  if (range.CellCount() > kWalkLimit) {
    for (int s = 0; s < num_shards_; ++s) shards.push_back(s);
    return shards;
  }
  std::vector<bool> hit(static_cast<size_t>(num_shards_), false);
  range.ForEach([&](int32_t i, int32_t j) { hit[ShardOf({i, j})] = true; });
  for (int s = 0; s < num_shards_; ++s) {
    if (hit[s]) shards.push_back(s);
  }
  return shards;
}

int ShardMap::SeedOwner(int64_t flat) const {
  if (num_shards_ == 1) return 0;
  return std::min(static_cast<int32_t>(flat / columns_) / band_rows_,
                  num_shards_ - 1);
}

void ShardMap::AssignmentSnapshot(std::vector<int32_t>* out) const {
  out->resize(static_cast<size_t>(cell_count_));
  if (epoch_ > 0) {
    std::copy(owner_.begin(), owner_.end(), out->begin());
    return;
  }
  for (int64_t f = 0; f < cell_count_; ++f) {
    (*out)[static_cast<size_t>(f)] = static_cast<int32_t>(SeedOwner(f));
  }
}

Status ShardMap::SetAssignment(uint64_t epoch,
                               const std::vector<int32_t>& owners) {
  if (epoch == 0 || owners.empty()) {
    // Seed assignment (possibly with an inherited epoch counter — the N→M
    // restore path, where the stored owner table names shards the new
    // deployment does not have).
    epoch_ = epoch;
    owner_.clear();
    if (epoch_ > 0) {
      owner_.resize(static_cast<size_t>(cell_count_));
      for (int64_t f = 0; f < cell_count_; ++f) {
        owner_[static_cast<size_t>(f)] = static_cast<int32_t>(SeedOwner(f));
      }
    }
    return Status::OK();
  }
  if (owners.size() != static_cast<size_t>(cell_count_)) {
    return Status::InvalidArgument("shard map: assignment size mismatch");
  }
  for (int32_t owner : owners) {
    if (owner < 0 || owner >= num_shards_) {
      return Status::InvalidArgument("shard map: owner out of range");
    }
  }
  epoch_ = epoch;
  owner_ = owners;
  return Status::OK();
}

Status ShardMap::ApplyMoves(uint64_t new_epoch,
                            const std::vector<CellMove>& moves) {
  if (new_epoch <= epoch_) {
    return Status::InvalidArgument("shard map: epoch must advance");
  }
  if (owner_.empty()) {
    owner_.resize(static_cast<size_t>(cell_count_));
    for (int64_t f = 0; f < cell_count_; ++f) {
      owner_[static_cast<size_t>(f)] = static_cast<int32_t>(SeedOwner(f));
    }
  }
  for (const CellMove& move : moves) {
    if (move.flat < 0 || move.flat >= cell_count_ || move.to_shard < 0 ||
        move.to_shard >= num_shards_) {
      return Status::InvalidArgument("shard map: move out of range");
    }
  }
  for (const CellMove& move : moves) {
    owner_[static_cast<size_t>(move.flat)] = move.to_shard;
  }
  epoch_ = new_epoch;
  return Status::OK();
}

void EncodeAssignment(const std::vector<int32_t>& owners,
                      std::vector<uint8_t>* out) {
  net::ByteWriter w(out);
  w.U32(static_cast<uint32_t>(owners.size()));
  // Count the runs first so the run list is length-prefixed.
  uint32_t runs = 0;
  for (size_t k = 0; k < owners.size();) {
    size_t end = k + 1;
    while (end < owners.size() && owners[end] == owners[k]) ++end;
    ++runs;
    k = end;
  }
  w.U32(runs);
  for (size_t k = 0; k < owners.size();) {
    size_t end = k + 1;
    while (end < owners.size() && owners[end] == owners[k]) ++end;
    w.U32(static_cast<uint32_t>(end - k));
    w.I32(owners[k]);
    k = end;
  }
}

Status DecodeAssignment(const uint8_t* data, size_t size, int num_shards,
                        std::vector<int32_t>* owners, size_t* consumed) {
  net::ByteReader r(data, size);
  uint32_t cells = r.U32();
  uint32_t runs = r.U32();
  owners->clear();
  if (r.ok() && runs > cells) r.Fail();
  if (r.ok()) owners->reserve(cells);
  for (uint32_t k = 0; r.ok() && k < runs; ++k) {
    uint32_t len = r.U32();
    int32_t owner = r.I32();
    if (!r.ok()) break;
    if (owner < 0 || owner >= num_shards ||
        owners->size() + len > cells) {
      r.Fail();
      break;
    }
    owners->insert(owners->end(), len, owner);
  }
  if (!r.ok() || owners->size() != cells) {
    owners->clear();
    return Status::InvalidArgument("assignment: malformed owner table");
  }
  if (consumed != nullptr) *consumed = size - r.remaining();
  return Status::OK();
}

void ServerShard::RqiAdd(QueryId qid, const geo::CellRange& mon_region) {
  mon_region.ForEach([&](int32_t i, int32_t j) {
    geo::CellCoord c{i, j};
    if (OwnsCell(c)) rqi_.AddCell(qid, c);
  });
}

void ServerShard::RqiRemove(QueryId qid, const geo::CellRange& mon_region) {
  mon_region.ForEach([&](int32_t i, int32_t j) {
    geo::CellCoord c{i, j};
    if (OwnsCell(c)) rqi_.RemoveCell(qid, c);
  });
}

}  // namespace mobieyes::core

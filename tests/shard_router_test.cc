// Server sharding (DESIGN.md §10): the ShardMap partition function, the
// boundary-walk ownership handoff, the monolith-equivalence contract of the
// ShardRouter, and multi-shard checkpoint/restore (including restoring into
// a deployment with a different shard count).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mobieyes/core/server.h"
#include "mobieyes/core/server_shard.h"
#include "mobieyes/core/shard_router.h"
#include "mobieyes/core/snapshot.h"
#include "test_harness.h"

namespace mobieyes {
namespace {

using core::ShardMap;
using core::ShardingOptions;

core::MobiEyesOptions ShardedOptions(int num_shards) {
  core::MobiEyesOptions options;
  options.sharding.num_shards = num_shards;
  return options;
}

// --- ShardMap ----------------------------------------------------------------

TEST(ShardMapTest, RowBandPartitionCoversEveryCellExactlyOnce) {
  geo::Grid grid = *geo::Grid::Make(geo::Rect{0, 0, 100, 100}, 10.0);
  for (int n : {1, 2, 3, 4, 8, 64}) {
    ShardingOptions options;
    options.num_shards = n;
    ShardMap map(grid, options);
    std::vector<int64_t> owned(static_cast<size_t>(n), 0);
    for (int32_t j = 0; j < grid.rows(); ++j) {
      for (int32_t i = 0; i < grid.columns(); ++i) {
        int s = map.ShardOf({i, j});
        ASSERT_GE(s, 0);
        ASSERT_LT(s, n);
        ++owned[static_cast<size_t>(s)];
        // Row bands: ownership depends on j only.
        EXPECT_EQ(s, map.ShardOf({0, j}));
      }
    }
    // More shards than rows leaves trailing shards empty; every other shard
    // owns at least one full row.
    int64_t total = 0;
    for (int64_t count : owned) total += count;
    EXPECT_EQ(total,
              static_cast<int64_t>(grid.rows()) * grid.columns());
  }
}

TEST(ShardMapTest, ShardsIntersectingIsExactForRowBands) {
  geo::Grid grid = *geo::Grid::Make(geo::Rect{0, 0, 100, 100}, 10.0);
  ShardingOptions options;
  options.num_shards = 4;
  ShardMap map(grid, options);
  for (int32_t j_lo = 0; j_lo < grid.rows(); j_lo += 2) {
    for (int32_t j_hi = j_lo; j_hi < grid.rows(); j_hi += 3) {
      geo::CellRange range{0, grid.columns() - 1, j_lo, j_hi};
      std::vector<int> shards = map.ShardsIntersecting(range);
      // Exactly the shards owning at least one cell, ascending, no dups.
      std::vector<bool> expected(4, false);
      range.ForEach(
          [&](int32_t i, int32_t j) { expected[map.ShardOf({i, j})] = true; });
      std::vector<int> want;
      for (int s = 0; s < 4; ++s) {
        if (expected[s]) want.push_back(s);
      }
      EXPECT_EQ(shards, want) << "rows [" << j_lo << ", " << j_hi << "]";
    }
  }
}

// A rebalanced epoch scatters cells across shards, so ShardsIntersecting
// walks the range's cells instead of answering from the row interval.
TEST(ShardMapTest, ShardsIntersectingCoversRebalancedPartition) {
  geo::Grid grid = *geo::Grid::Make(geo::Rect{0, 0, 100, 100}, 10.0);
  ShardingOptions options;
  options.num_shards = 5;
  ShardMap map(grid, options);
  std::vector<core::CellMove> moves;
  for (int32_t flat = 0; flat < grid.CellCount(); flat += 3) {
    moves.push_back({flat, flat % 5});
  }
  ASSERT_TRUE(map.ApplyMoves(1, moves).ok());
  geo::CellRange range{1, 4, 2, 5};
  std::vector<int> shards = map.ShardsIntersecting(range);
  // Every owner of a cell in the range must be reported (a miss would lose
  // RQI registrations); the walked result must also stay sorted and unique.
  std::vector<bool> reported(5, false);
  for (int s : shards) reported[static_cast<size_t>(s)] = true;
  range.ForEach([&](int32_t i, int32_t j) {
    EXPECT_TRUE(reported[static_cast<size_t>(map.ShardOf({i, j}))]);
  });
  for (size_t k = 1; k < shards.size(); ++k) {
    EXPECT_LT(shards[k - 1], shards[k]);
  }
}

// --- Boundary-walk handoff property -----------------------------------------

// Objects that keep their focal role while marching straight through every
// row band of the grid. The sharded server must (a) migrate ownership with
// explicit handoffs, (b) keep each focal co-located with its queries, and
// (c) stay observably identical to a monolith twin fed the same workload —
// result sets, RQI rows, and wireless traffic included.
TEST(ShardRouterTest, BoundaryWalkKeepsShardedServerEquivalentToMonolith) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 10; ++k) {
    // March up in y (the row/j axis) so row-band boundaries are crossed
    // repeatedly; a few slower objects serve as non-focal targets.
    double vy = k < 5 ? 0.08 : 0.01;
    specs.push_back(test::ObjectSpec({10.0 + 9.0 * k, 5.0 + 3.0 * k},
                                     {0.0, vy},
                                     /*max_speed_in=*/0.1));
  }
  test::MiniDeployment mono(specs, ShardedOptions(1));
  test::MiniDeployment sharded(specs, ShardedOptions(4));
  const core::ShardRouter& router = sharded.server().router();
  ASSERT_EQ(router.num_shards(), 4);

  for (ObjectId oid = 0; oid < 5; ++oid) {
    ASSERT_TRUE(mono.server().InstallQuery(oid, 12.0, 0.5).ok());
    ASSERT_TRUE(sharded.server().InstallQuery(oid, 12.0, 0.5).ok());
  }

  auto expect_equivalent = [&](const std::string& context) {
    ASSERT_EQ(sharded.server().query_count(), mono.server().query_count())
        << context;
    for (QueryId qid = 0; qid < 5; ++qid) {
      const core::SqtEntry* a = mono.server().FindQuery(qid);
      const core::SqtEntry* b = sharded.server().FindQuery(qid);
      ASSERT_NE(a, nullptr) << context;
      ASSERT_NE(b, nullptr) << context;
      EXPECT_EQ(b->result, a->result) << context << " qid " << qid;
      EXPECT_EQ(b->curr_cell.i, a->curr_cell.i) << context;
      EXPECT_EQ(b->curr_cell.j, a->curr_cell.j) << context;
      EXPECT_EQ(b->mon_region.j_lo, a->mon_region.j_lo) << context;
      EXPECT_EQ(b->mon_region.j_hi, a->mon_region.j_hi) << context;

      // Co-location invariant: the query, its focal's FOT row and the
      // focal's home index all agree, and the home is the focal's cell's
      // owner.
      const core::FotEntry* focal = sharded.server().FindFocal(b->focal_oid);
      ASSERT_NE(focal, nullptr) << context;
      int home = router.ShardOfFocal(b->focal_oid);
      EXPECT_EQ(home, router.shard_map().ShardOf(focal->cell)) << context;
      EXPECT_EQ(router.ShardOfQuery(qid), home) << context;
    }
    // RQI row equality on every cell: the sharded slices, read through the
    // router, must reproduce the monolith's rows element-for-element (order
    // included — broadcast order depends on it).
    const geo::Grid& grid = mono.grid();
    for (int32_t j = 0; j < grid.rows(); ++j) {
      for (int32_t i = 0; i < grid.columns(); ++i) {
        EXPECT_EQ(router.QueriesForCell({i, j}),
                  mono.server().rqi().QueriesForCell({i, j}))
            << context << " cell (" << i << ", " << j << ")";
      }
    }
    // The wireless byte streams match: clients cannot tell the deployments
    // apart.
    EXPECT_EQ(sharded.network().stats().uplink_bytes,
              mono.network().stats().uplink_bytes)
        << context;
    EXPECT_EQ(sharded.network().stats().downlink_bytes,
              mono.network().stats().downlink_bytes)
        << context;
    EXPECT_EQ(sharded.network().stats().broadcast_receptions,
              mono.network().stats().broadcast_receptions)
        << context;
  };

  expect_equivalent("after install");
  for (int step = 0; step < 25; ++step) {
    mono.Tick();
    sharded.Tick();
    expect_equivalent("step " + std::to_string(step));
  }

  // The walk really crossed partition boundaries: ownership moved, via
  // backplane handoffs, and those handoffs stayed off the wireless medium.
  const core::ShardRouter::BackplaneStats& backplane = router.backplane();
  EXPECT_GT(backplane.handoffs, 0u);
  EXPECT_GT(backplane.bytes, 0u);
  uint64_t handoffs_in = 0;
  uint64_t handoffs_out = 0;
  for (int s = 0; s < router.num_shards(); ++s) {
    handoffs_in += router.shard(s).stats().handoffs_in;
    handoffs_out += router.shard(s).stats().handoffs_out;
  }
  EXPECT_EQ(handoffs_in, backplane.handoffs);
  EXPECT_EQ(handoffs_out, backplane.handoffs);
  // The monolith's backplane is silent by definition.
  EXPECT_EQ(mono.server().router().backplane().messages, 0u);
}

// --- Multi-shard checkpoint/restore ------------------------------------------

// The checkpoint image is shard-count-independent: per-worker id slices
// concatenate into the same ascending-id layout the monolith writes, so
// identical logical state yields identical bytes whatever the shard count.
TEST(ShardRouterTest, CheckpointImageIsByteIdenticalAcrossShardCounts) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 8; ++k) {
    specs.push_back(test::ObjectSpec({8.0 + 11.0 * k, 20.0 + 6.0 * k},
                                     {0.0, 0.07},
                                     /*max_speed_in=*/0.1));
  }
  std::vector<std::vector<uint8_t>> images;
  for (int shards : {1, 2, 4}) {
    test::MiniDeployment d(specs, ShardedOptions(shards));
    core::Snapshot store;
    d.server().set_durable_store(&store);
    for (ObjectId oid = 0; oid < 4; ++oid) {
      ASSERT_TRUE(d.server().InstallQuery(oid, 12.0, 0.5).ok());
    }
    d.TickN(12);
    d.server().Checkpoint();
    ASSERT_FALSE(store.checkpoint.empty());
    images.push_back(store.checkpoint);
  }
  EXPECT_EQ(images[1], images[0]);
  EXPECT_EQ(images[2], images[0]);
}

// A store written by an N-shard server restores into an M-shard server:
// entries re-home under the restoring deployment's shard map and the
// co-location invariant holds afterwards.
TEST(ShardRouterTest, MultiShardRestoreRehomesAcrossShardCounts) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 10; ++k) {
    specs.push_back(test::ObjectSpec({6.0 + 9.0 * k, 15.0 + 7.0 * k},
                                     {0.02, 0.05},
                                     /*max_speed_in=*/0.1));
  }
  core::MobiEyesOptions live_options = ShardedOptions(4);
  test::MiniDeployment d(specs, live_options);
  core::Snapshot store;
  store.wal_limit = 4096;
  d.server().set_durable_store(&store);
  for (ObjectId oid = 0; oid < 5; ++oid) {
    ASSERT_TRUE(d.server().InstallQuery(oid, 12.0, 0.5).ok());
  }
  d.TickN(6);
  d.server().Checkpoint();
  d.TickN(6);  // post-checkpoint uplinks land in the WAL
  ASSERT_GT(store.wal.size(), 0u);
  ASSERT_GT(d.server().router().backplane().handoffs, 0u);

  for (int restore_shards : {1, 2, 4, 8}) {
    core::MobiEyesServer restored(d.grid(), d.layout(), d.bmap(), d.network(),
                                  ShardedOptions(restore_shards));
    size_t replayed = 0;
    Status status = restored.Restore(store, &replayed);
    ASSERT_TRUE(status.ok())
        << restore_shards << " shards: " << status.ToString();
    EXPECT_EQ(replayed, store.wal.size());
    EXPECT_EQ(restored.query_count(), d.server().query_count())
        << restore_shards << " shards";
    const core::ShardRouter& router = restored.router();
    for (QueryId qid = 0; qid < 5; ++qid) {
      const core::SqtEntry* live = d.server().FindQuery(qid);
      const core::SqtEntry* back = restored.FindQuery(qid);
      ASSERT_NE(live, nullptr);
      ASSERT_NE(back, nullptr) << restore_shards << " shards, qid " << qid;
      EXPECT_EQ(back->result, live->result)
          << restore_shards << " shards, qid " << qid;
      EXPECT_EQ(back->curr_cell.j, live->curr_cell.j);
      // Re-homed co-location under the *restoring* map.
      const core::FotEntry* focal = restored.FindFocal(back->focal_oid);
      ASSERT_NE(focal, nullptr);
      int home = router.ShardOfFocal(back->focal_oid);
      EXPECT_EQ(home, router.shard_map().ShardOf(focal->cell));
      EXPECT_EQ(router.ShardOfQuery(qid), home);
    }
    // RQI rows rebuild identically whatever the restoring shard count.
    const geo::Grid& grid = d.grid();
    for (int32_t j = 0; j < grid.rows(); ++j) {
      for (int32_t i = 0; i < grid.columns(); ++i) {
        EXPECT_EQ(router.QueriesForCell({i, j}),
                  d.server().router().QueriesForCell({i, j}))
            << restore_shards << " shards, cell (" << i << ", " << j << ")";
      }
    }
  }
}

// A restored multi-shard deployment keeps serving: post-restore ticks keep
// it in lockstep with the crashed-then-restored monolith equivalent.
TEST(ShardRouterTest, MultiShardServerResumesAfterRestore) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 8; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 10.0 * k, 30.0},
                                     {0.0, 0.06},
                                     /*max_speed_in=*/0.1));
  }
  test::MiniDeployment d(specs, ShardedOptions(4));
  core::Snapshot store;
  d.server().set_durable_store(&store);
  for (ObjectId oid = 0; oid < 4; ++oid) {
    ASSERT_TRUE(d.server().InstallQuery(oid, 12.0, 0.5).ok());
  }
  d.TickN(5);
  d.server().Checkpoint();
  d.TickN(3);

  core::MobiEyesServer restored(d.grid(), d.layout(), d.bmap(), d.network(),
                                ShardedOptions(2));
  ASSERT_TRUE(restored.Restore(store).ok());
  restored.set_durable_store(&store);
  // The restored server answers exactly like the live one it replaced.
  for (QueryId qid = 0; qid < 4; ++qid) {
    auto live = d.server().QueryResult(qid);
    auto back = restored.QueryResult(qid);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, *live) << "qid " << qid;
  }
  // And it can advance time / expire / checkpoint without the old shards.
  restored.AdvanceTime(d.world().now() + 30.0);
  restored.Checkpoint();
  EXPECT_FALSE(store.checkpoint.empty());
}

// The router's tables are dense arrays indexed by id with an explicit row
// count: removals and later installs (which take fresh, larger qids) must
// keep query_count() and the lookups in step with the SQT.
TEST(ShardRouterTest, QueryCountTracksRemoveAndReinstall) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 15.0 * k, 50.0}));
  }
  test::MiniDeployment d(specs, ShardedOptions(4));
  auto first = d.server().InstallQuery(0, 12.0, 0.5);
  auto second = d.server().InstallQuery(3, 12.0, 0.5);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(d.server().query_count(), 2u);

  ASSERT_TRUE(d.server().RemoveQuery(*first).ok());
  EXPECT_EQ(d.server().query_count(), 1u);
  EXPECT_EQ(d.server().FindQuery(*first), nullptr);
  EXPECT_EQ(d.server().router().ShardOfQuery(*first), -1);
  // The focal lost its only query, so it left the FOT too.
  EXPECT_EQ(d.server().FindFocal(0), nullptr);
  EXPECT_FALSE(d.server().RemoveQuery(*first).ok());
  EXPECT_EQ(d.server().query_count(), 1u);

  auto third = d.server().InstallQuery(5, 12.0, 0.5);
  ASSERT_TRUE(third.ok());
  EXPECT_GT(*third, *second);
  EXPECT_EQ(d.server().query_count(), 2u);
  ASSERT_NE(d.server().FindQuery(*third), nullptr);
  EXPECT_EQ(d.server().FindQuery(*third)->focal_oid, 5);
  EXPECT_NE(d.server().FindQuery(*second), nullptr);
}

// A position report naming an oid the dense focal table cannot index (a
// negative id, or one at or above kMaxDenseId) is ignored rather than
// growing the table; lookups of such ids answer "absent".
TEST(ShardRouterTest, OutOfRangePositionReportIsIgnored) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 4; ++k) {
    specs.push_back(test::ObjectSpec({20.0 + 15.0 * k, 40.0}));
  }
  test::MiniDeployment d(specs, ShardedOptions(2));
  ASSERT_TRUE(d.server().InstallQuery(1, 12.0, 0.5).ok());
  const ObjectId kMax = core::ShardRouter::kMaxDenseId;
  for (ObjectId oid : {ObjectId{-7}, kMax, ObjectId{1} << 40}) {
    net::PositionVelocityReport report;
    report.oid = oid;
    report.state.pos = {30.0, 40.0};
    report.max_speed = 0.1;
    d.server().OnUplink(oid, net::MakeMessage(report));
    EXPECT_EQ(d.server().FindFocal(oid), nullptr) << "oid " << oid;
    EXPECT_EQ(d.server().router().ShardOfFocal(oid), -1) << "oid " << oid;
  }
  EXPECT_NE(d.server().FindFocal(1), nullptr);
  EXPECT_EQ(d.server().query_count(), 1u);
  d.TickN(2);
  EXPECT_TRUE(d.server().QueryResult(0).ok());
}

// A tracked uplink (seq != 0) from a sender id the dense dedup table cannot
// index is dropped before dedup: not applied, not acknowledged, and no
// dedup row is added — the checkpoint image stays byte-identical.
TEST(ShardRouterTest, OutOfRangeReliableUplinkSenderIsDropped) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 4; ++k) {
    specs.push_back(test::ObjectSpec({20.0 + 15.0 * k, 40.0}));
  }
  test::MiniDeployment d(specs, ShardedOptions(2));
  core::Snapshot store;
  d.server().set_durable_store(&store);
  ASSERT_TRUE(d.server().InstallQuery(1, 12.0, 0.5).ok());
  d.server().Checkpoint();
  const std::vector<uint8_t> image = store.checkpoint;
  const net::FocalState before = d.server().FindFocal(1)->state;
  net::VelocityChangeReport report;
  report.oid = 1;
  report.state = before;
  report.state.pos.x += 1.0;
  report.state.tm += 1.0;
  net::Message message = net::MakeMessage(report);
  message.seq = 3;
  const ObjectId kMax = core::ShardRouter::kMaxDenseId;
  for (ObjectId from : {ObjectId{-7}, kMax, ObjectId{1} << 40}) {
    const net::NetworkStats sent = d.network().stats();
    d.server().OnUplink(from, message);
    EXPECT_EQ(d.server().FindFocal(1)->state.pos.x, before.pos.x)
        << "from " << from;
    EXPECT_EQ(d.network().stats().downlink_messages, sent.downlink_messages)
        << "from " << from;
    EXPECT_EQ(d.network().stats().undeliverable_downlinks,
              sent.undeliverable_downlinks)
        << "from " << from;
  }
  d.server().Checkpoint();
  EXPECT_EQ(store.checkpoint, image);
  // The same uplink from an in-range sender is applied and acknowledged.
  const uint64_t downlinks = d.network().stats().downlink_messages;
  d.server().OnUplink(1, message);
  EXPECT_EQ(d.server().FindFocal(1)->state.pos.x, before.pos.x + 1.0);
  EXPECT_GT(d.network().stats().downlink_messages, downlinks);
}

// --- DenseTable --------------------------------------------------------------

TEST(DenseTableTest, RowsStayPutEraseReinsertsAndSlicesWalkAscending) {
  core::DenseTable<std::vector<int>> table;
  std::vector<int>* row = table.Insert(5);
  ASSERT_NE(row, nullptr);
  row->push_back(42);
  // Rows are address-stable: inserting higher ids (growing both the slot
  // array and the pool) never moves an existing row.
  for (int64_t id = 6; id < 5000; ++id) ASSERT_NE(table.Insert(id), nullptr);
  EXPECT_EQ(table.Find(5), row);
  EXPECT_EQ(row->front(), 42);
  EXPECT_EQ(table.Insert(5), nullptr);  // already present: no change
  EXPECT_EQ(table.size(), 4995u);
  EXPECT_EQ(table.id_end(), 5000);

  // Erase empties the row and frees its id; a reinsert starts from a
  // default row.
  table.Erase(5);
  EXPECT_EQ(table.Find(5), nullptr);
  EXPECT_EQ(table.size(), 4994u);
  table.Erase(5);  // absent: no-op
  EXPECT_EQ(table.size(), 4994u);
  std::vector<int>* again = table.Insert(5);
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(again->empty());
  EXPECT_EQ(table.size(), 4995u);

  // Lookups of ids the table cannot hold answer "absent".
  EXPECT_EQ(table.Find(-1), nullptr);
  EXPECT_EQ(table.Find(int64_t{1} << 40), nullptr);
  EXPECT_EQ(table.Find(3), nullptr);

  // Walking contiguous id slices in order visits the present ids in
  // ascending order, each once.
  for (int64_t id = 100; id < 5000; id += 7) table.Erase(id);
  std::vector<int64_t> walked;
  auto record = [&walked](int64_t id, const std::vector<int>&) {
    walked.push_back(id);
  };
  const int64_t end = table.id_end();
  for (int64_t k = 0; k < 3; ++k) {
    table.ForEachIn(end * k / 3, end * (k + 1) / 3, record);
  }
  ASSERT_EQ(walked.size(), table.size());
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
  EXPECT_EQ(walked.front(), 5);
  EXPECT_EQ(std::adjacent_find(walked.begin(), walked.end()), walked.end());
}

}  // namespace
}  // namespace mobieyes
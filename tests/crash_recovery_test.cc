// Crash recovery (DESIGN.md §9): the durable Snapshot store, server
// checkpoint/WAL restore, client cold restarts, and the kill/restart fault
// events in the simulation — including the recovery-equivalence contract
// (a zero-downtime crash+restore run is byte-identical to an uninterrupted
// one) and the thread-count determinism of WAL replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mobieyes/core/server.h"
#include "mobieyes/core/snapshot.h"
#include "mobieyes/net/message.h"
#include "mobieyes/sim/simulation.h"
#include "test_harness.h"

namespace mobieyes {
namespace {

net::Message VelocityMessage(ObjectId oid, double vx, uint32_t seq) {
  net::VelocityChangeReport report;
  report.oid = oid;
  report.state.pos = {10.0 + vx, 20.0};
  report.state.vel = {vx, 0.5};
  report.state.tm = 30.0;
  net::Message message = net::MakeMessage(report);
  message.seq = seq;
  return message;
}

// --- Snapshot store ---------------------------------------------------------

TEST(SnapshotTest, WalDropsNewestRecordsAtCapacity) {
  core::Snapshot store;
  store.wal_limit = 3;
  for (uint32_t k = 0; k < 5; ++k) {
    store.Append(1, VelocityMessage(1, 0.1 * k, k + 1));
  }
  ASSERT_EQ(store.wal.size(), 3u);
  EXPECT_EQ(store.wal_dropped, 2u);
  // The *prefix* survives: dropping the newest keeps the log replayable.
  EXPECT_EQ(store.wal[0].message.seq, 1u);
  EXPECT_EQ(store.wal[2].message.seq, 3u);

  store.Install({0xAA, 0xBB});
  EXPECT_TRUE(store.wal.empty());
  EXPECT_EQ(store.wal_dropped, 0u);
  EXPECT_EQ(store.checkpoint.size(), 2u);
}

TEST(SnapshotTest, SerializeParseRoundTrip) {
  core::Snapshot store;
  store.wal_limit = 7;
  store.checkpoint = {1, 2, 3, 4, 5};
  store.Append(3, VelocityMessage(3, 0.25, 42));
  net::CellChangeReport cell;
  cell.oid = 9;
  cell.prev_cell = {1, 2};
  cell.new_cell = {2, 2};
  store.Append(9, net::MakeMessage(cell));
  store.wal_dropped = 11;

  auto parsed = core::Snapshot::Parse(store.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->checkpoint, store.checkpoint);
  EXPECT_EQ(parsed->wal_limit, 7u);
  EXPECT_EQ(parsed->wal_dropped, 11u);
  ASSERT_EQ(parsed->wal.size(), 2u);
  EXPECT_EQ(parsed->wal[0].from, 3);
  // The envelope seq is not part of the wire body; the store must carry it
  // explicitly or replay would bypass the server's dedup path.
  EXPECT_EQ(parsed->wal[0].message.seq, 42u);
  const auto& report =
      std::get<net::VelocityChangeReport>(parsed->wal[0].message.payload);
  EXPECT_EQ(report.oid, 3);
  EXPECT_DOUBLE_EQ(report.state.vel.x, 0.25);
  EXPECT_EQ(parsed->wal[1].from, 9);
  EXPECT_EQ(parsed->wal[1].message.type, net::MessageType::kCellChangeReport);
}

TEST(SnapshotTest, ParseRejectsEveryTruncation) {
  core::Snapshot store;
  store.checkpoint = {9, 8, 7};
  store.Append(2, VelocityMessage(2, 0.5, 7));
  std::vector<uint8_t> buffer = store.Serialize();
  for (size_t len = 0; len < buffer.size(); ++len) {
    std::vector<uint8_t> truncated(buffer.begin(), buffer.begin() + len);
    auto parsed = core::Snapshot::Parse(truncated);
    EXPECT_FALSE(parsed.ok()) << "accepted truncation to " << len << " bytes";
  }
}

TEST(SnapshotTest, ParseRejectsBadMagicVersionAndTrailingBytes) {
  core::Snapshot store;
  store.checkpoint = {1};
  std::vector<uint8_t> buffer = store.Serialize();

  std::vector<uint8_t> bad_magic = buffer;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(core::Snapshot::Parse(bad_magic).ok());

  std::vector<uint8_t> bad_version = buffer;
  bad_version[4] ^= 0xFF;
  EXPECT_FALSE(core::Snapshot::Parse(bad_version).ok());

  std::vector<uint8_t> trailing = buffer;
  trailing.push_back(0);
  EXPECT_FALSE(core::Snapshot::Parse(trailing).ok());
}

// A crash while the store file itself was being written leaves a
// zero-length or header-truncated buffer. Each short-read mode must come
// back as its own InvalidArgument — not a misleading "bad magic" from
// zero-filled reads, and never a crash.
TEST(SnapshotTest, ParseRejectsZeroLengthStore) {
  auto parsed = core::Snapshot::Parse({});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("empty store"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(SnapshotTest, ParseRejectsStoreTruncatedAtHeader) {
  core::Snapshot store;
  store.checkpoint = {1, 2, 3};
  std::vector<uint8_t> buffer = store.Serialize();
  // Every prefix strictly inside the fixed header (magic, version,
  // reserved, image size = 16 bytes).
  for (size_t len = 1; len < 16; ++len) {
    std::vector<uint8_t> truncated(buffer.begin(), buffer.begin() + len);
    auto parsed = core::Snapshot::Parse(truncated);
    ASSERT_FALSE(parsed.ok()) << "accepted " << len << "-byte header";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("truncated at header"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

// --- Server checkpoint / restore -------------------------------------------

core::MobiEyesOptions HardenedTestOptions() {
  return core::HardenedOptions(core::MobiEyesOptions{}, /*time_step=*/30.0,
                               /*lease_ticks=*/16);
}

// Restoring checkpoint + WAL on a fresh server must reproduce the crashed
// server's protocol state: SQT rows, result sets, FOT kinematics and the
// dedup rings (checked indirectly through QueryResult equality).
TEST(ServerRestoreTest, RestoreReproducesServerState) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 12; ++k) {
    specs.push_back(test::ObjectSpec({5.0 + 7.0 * k, 40.0},
                                     {0.02 * (k % 5), 0.01 * (k % 3)},
                                     /*max_speed_in=*/0.05));
  }
  core::MobiEyesOptions options = HardenedTestOptions();
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  store.wal_limit = 4096;
  d.server().set_durable_store(&store);

  ASSERT_TRUE(d.server().InstallQuery(0, 15.0, 0.5).ok());
  ASSERT_TRUE(d.server().InstallQuery(4, 10.0, 0.5).ok());
  d.TickN(3);
  d.server().Checkpoint();
  ASSERT_TRUE(d.server().InstallQuery(7, 12.0, 0.5).ok());
  d.TickN(5);  // uplinks since the checkpoint land in the WAL
  ASSERT_GT(store.wal.size(), 0u);

  core::MobiEyesServer restored(d.grid(), d.layout(), d.bmap(), d.network(),
                                options);
  size_t replayed = 0;
  Status status = restored.Restore(store, &replayed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(replayed, store.wal.size());

  EXPECT_EQ(restored.query_count(), d.server().query_count());
  // The clock is not WAL-logged: the restored server lags at the last
  // image's time until its first AdvanceTime.
  EXPECT_LE(restored.now(), d.server().now());
  for (QueryId qid = 0; qid < 3; ++qid) {
    const core::MobiEyesServer::SqtEntry* live = d.server().FindQuery(qid);
    const core::MobiEyesServer::SqtEntry* back = restored.FindQuery(qid);
    ASSERT_NE(live, nullptr);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->focal_oid, live->focal_oid);
    EXPECT_EQ(back->curr_cell.i, live->curr_cell.i);
    EXPECT_EQ(back->curr_cell.j, live->curr_cell.j);
    EXPECT_EQ(back->mon_region.i_lo, live->mon_region.i_lo);
    EXPECT_EQ(back->mon_region.i_hi, live->mon_region.i_hi);
    EXPECT_EQ(back->mon_region.j_lo, live->mon_region.j_lo);
    EXPECT_EQ(back->mon_region.j_hi, live->mon_region.j_hi);
    EXPECT_DOUBLE_EQ(back->expires_at, live->expires_at);
    EXPECT_DOUBLE_EQ(back->lease_renew_at, live->lease_renew_at);
    EXPECT_EQ(back->result, live->result);
    const core::MobiEyesServer::FotEntry* live_focal =
        d.server().FindFocal(live->focal_oid);
    const core::MobiEyesServer::FotEntry* back_focal =
        restored.FindFocal(live->focal_oid);
    ASSERT_NE(live_focal, nullptr);
    ASSERT_NE(back_focal, nullptr);
    EXPECT_DOUBLE_EQ(back_focal->state.pos.x, live_focal->state.pos.x);
    EXPECT_DOUBLE_EQ(back_focal->state.vel.x, live_focal->state.vel.x);
    EXPECT_DOUBLE_EQ(back_focal->state.tm, live_focal->state.tm);
    EXPECT_EQ(back_focal->queries, live_focal->queries);
  }
}

// A corrupt checkpoint image must fail cleanly (Status, not a crash or an
// out-of-bounds RQI write), whatever byte it is cut at.
TEST(ServerRestoreTest, RestoreRejectsTruncatedImages) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 12.0 * k, 55.0}));
  }
  core::MobiEyesOptions options = HardenedTestOptions();
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  d.server().set_durable_store(&store);
  ASSERT_TRUE(d.server().InstallQuery(1, 14.0, 0.5).ok());
  d.TickN(2);
  d.server().Checkpoint();
  ASSERT_FALSE(store.checkpoint.empty());

  const std::vector<uint8_t> image = store.checkpoint;
  // Truncation to zero bytes is "no checkpoint at all": a legal cold
  // restore, not corruption.
  {
    core::Snapshot empty;
    core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                               options);
    EXPECT_TRUE(fresh.Restore(empty).ok());
    EXPECT_EQ(fresh.query_count(), 0u);
  }
  for (size_t len = 1; len < image.size(); ++len) {
    core::Snapshot corrupt;
    corrupt.checkpoint.assign(image.begin(), image.begin() + len);
    core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                               options);
    EXPECT_FALSE(fresh.Restore(corrupt).ok())
        << "accepted image truncated to " << len << " bytes";
  }
  core::Snapshot bad_magic;
  bad_magic.checkpoint = image;
  bad_magic.checkpoint[0] ^= 0xFF;
  core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                             options);
  EXPECT_FALSE(fresh.Restore(bad_magic).ok());
}

// Checkpoint ids index the router's dense home tables, so decode bounds
// them before any table grows to cover one: a negative or huge focal oid,
// a query-id counter out of range, a query id at or above the image's own
// counter, or an id that appears twice each fail cleanly. (Under ASan a
// table sized by 2^40 would abort the test on the allocation.)
TEST(ServerRestoreTest, RestoreRejectsOutOfRangeAndDuplicateIds) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 4; ++k) {
    specs.push_back(test::ObjectSpec({15.0 + 20.0 * k, 45.0}));
  }
  core::MobiEyesOptions options;
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  d.server().set_durable_store(&store);
  ASSERT_TRUE(d.server().InstallQuery(1, 14.0, 0.5).ok());
  ASSERT_TRUE(d.server().InstallQuery(2, 14.0, 0.5).ok());
  d.TickN(2);
  // Two tracked uplinks (seq != 0) give the dedup table rows for senders 0
  // and 3; the reports themselves are stale and change nothing else.
  for (ObjectId from : {ObjectId{0}, ObjectId{3}}) {
    net::Message message =
        net::MakeMessage(net::VelocityChangeReport{from, {}});
    message.seq = 9;
    d.server().OnUplink(from, message);
  }
  d.server().Checkpoint();
  const std::vector<uint8_t> image = store.checkpoint;

  // Version-1 image layout: magic u32, version u16, reserved u16, now f64,
  // next_qid i64, FOT count u32, then the FOT entries in oid order. An
  // entry with one query is oid i64, state 5 x f64, max speed f64, cell
  // 2 x i32, query count u32 and the qid i64: 76 bytes.
  // The image ends with the dedup table: two rows of sender oid i64, ring
  // 8 x u32 and cursor u8, 41 bytes each.
  constexpr size_t kNextQidOffset = 16;
  constexpr size_t kFirstOidOffset = 28;
  constexpr size_t kFirstBoundQidOffset = kFirstOidOffset + 68;
  constexpr size_t kSecondOidOffset = kFirstOidOffset + 76;
  ASSERT_GT(image.size(), kSecondOidOffset + 2 * 41);
  const size_t first_sender_offset = image.size() - 2 * 41;
  auto restore_patched = [&](size_t offset, int64_t value) {
    core::Snapshot patched;
    patched.checkpoint = image;
    std::memcpy(patched.checkpoint.data() + offset, &value, sizeof(value));
    core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                               options);
    return fresh.Restore(patched);
  };
  // The untouched image restores; the patch offsets point where claimed.
  ASSERT_TRUE(restore_patched(kNextQidOffset, 2).ok());
  ASSERT_TRUE(restore_patched(kFirstOidOffset, 1).ok());
  ASSERT_TRUE(restore_patched(kSecondOidOffset, 2).ok());
  ASSERT_TRUE(restore_patched(kFirstBoundQidOffset, 0).ok());
  ASSERT_TRUE(restore_patched(first_sender_offset, 0).ok());

  const int64_t kHuge = int64_t{1} << 40;
  const int64_t kMax = core::ShardRouter::kMaxDenseId;
  for (int64_t oid : {int64_t{-1}, kHuge, kMax}) {
    Status status = restore_patched(kFirstOidOffset, oid);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "oid " << oid;
  }
  // The queries have qids 0 and 1: a counter of 1 puts qid 1 at the
  // counter, and counters outside [0, kMaxDenseId] are rejected outright.
  for (int64_t next_qid : {int64_t{1}, int64_t{-1}, kHuge}) {
    Status status = restore_patched(kNextQidOffset, next_qid);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "next_qid " << next_qid;
  }
  EXPECT_EQ(restore_patched(kSecondOidOffset, 1).code(),
            StatusCode::kInvalidArgument);
  // Focal 1 listing qid 1, which focal 2 lists too, leaves qid 0 unbound.
  EXPECT_EQ(restore_patched(kFirstBoundQidOffset, 1).code(),
            StatusCode::kInvalidArgument);
  // Dedup senders index a dense table too: out-of-range and duplicate
  // senders are rejected.
  for (int64_t oid : {int64_t{-1}, kHuge, kMax, int64_t{3}}) {
    Status status = restore_patched(first_sender_offset, oid);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "sender " << oid;
  }
}

// --- Simulation-level recovery ---------------------------------------------

sim::SimulationConfig SmallCrashConfig() {
  sim::SimulationConfig config;
  config.params.num_objects = 300;
  config.params.num_queries = 40;
  config.params.velocity_changes_per_step = 40;
  config.params.area_square_miles = 10000.0;  // 100 x 100
  config.params.seed = 11;
  config.mode = sim::SimMode::kMobiEyesEager;
  config.measure_error = true;
  config.warmup_steps = 2;
  config.mobieyes =
      core::HardenedOptions(config.mobieyes, config.params.time_step);
  config.obs.enable_metrics = true;
  config.obs.sample_stride = 1;
  return config;
}

std::string RunAndReport(const sim::SimulationConfig& config, int steps,
                         sim::RunMetrics* metrics_out,
                         std::vector<std::set<ObjectId>>* results_out) {
  auto simulation = sim::Simulation::Make(config);
  EXPECT_TRUE(simulation.ok()) << simulation.status().ToString();
  if (!simulation.ok()) return {};
  (*simulation)->Run(steps);
  if (metrics_out != nullptr) *metrics_out = (*simulation)->metrics();
  if (results_out != nullptr) {
    for (QueryId qid : (*simulation)->installed_queries()) {
      auto result = (*simulation)->server()->QueryResult(qid);
      EXPECT_TRUE(result.ok());
      results_out->push_back(result.ok()
                                 ? std::set<ObjectId>(result->begin(),
                                                      result->end())
                                 : std::set<ObjectId>{});
    }
  }
  return (*simulation)->ObservabilityJson(/*include_timing=*/false);
}

// The recovery-equivalence contract: at drop 0, a run that crashes and
// restores the server within the same step (zero downtime) must be
// indistinguishable — byte-identical deterministic report, identical final
// query results — from a run that never crashed.
TEST(SimulationCrashTest, InstantRestoreIsByteIdenticalToUninterruptedRun) {
  sim::SimulationConfig plain = SmallCrashConfig();
  // Activate the fault layer without any reachable fault so both runs route
  // through FaultyNetwork and register the identical metrics counter set
  // (net.fault.*); otherwise the JSON key sets differ trivially.
  plain.faults.forced_restart_oid = 0;
  plain.faults.forced_restart_step = 1 << 20;
  sim::SimulationConfig crashed = SmallCrashConfig();
  crashed.faults.forced_restart_oid = 0;
  crashed.faults.forced_restart_step = 1 << 20;
  crashed.faults.server_crash_step = 6;
  crashed.faults.server_recovery_steps = 0;
  crashed.checkpoint_stride = 1;

  sim::RunMetrics plain_metrics;
  sim::RunMetrics crash_metrics;
  std::vector<std::set<ObjectId>> plain_results;
  std::vector<std::set<ObjectId>> crash_results;
  std::string plain_json = RunAndReport(plain, 10, &plain_metrics,
                                        &plain_results);
  std::string crash_json = RunAndReport(crashed, 10, &crash_metrics,
                                        &crash_results);

  EXPECT_EQ(crash_metrics.server_crashes, 1);
  EXPECT_FALSE(plain_json.empty());
  EXPECT_EQ(plain_json, crash_json);
  EXPECT_EQ(plain_results, crash_results);
  EXPECT_EQ(plain_metrics.network.uplink_messages,
            crash_metrics.network.uplink_messages);
  EXPECT_EQ(plain_metrics.network.downlink_messages,
            crash_metrics.network.downlink_messages);
  EXPECT_EQ(plain_metrics.agreement_sum, crash_metrics.agreement_sum);
}

// A crash with real downtime loses the in-flight traffic of the dark window
// (counted as undeliverable, not dropped), and the restored server must
// reconverge with the oracle at drop 0.
TEST(SimulationCrashTest, ReconvergesAfterDowntime) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.faults.server_crash_step = 8;
  config.faults.server_recovery_steps = 3;
  config.checkpoint_stride = 4;

  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(30);
  sim::RunMetrics metrics = (*simulation)->metrics();
  EXPECT_EQ(metrics.server_crashes, 1);
  EXPECT_GE(metrics.checkpoints_taken, 2);
  // Uplinks sent into the dark window are undeliverable-by-reason, never
  // silently folded into the drop counters.
  using Reason = net::NetworkStats::UndeliverableReason;
  EXPECT_GT(metrics.network.undeliverable_by_reason[static_cast<size_t>(
                Reason::kServerDown)],
            0u);
  EXPECT_EQ(metrics.network.uplink_dropped, 0u);
  EXPECT_GE((*simulation)->CurrentAccuracy().agreement, 0.95);
}

// Recovery still works when the crash happens under 10% message loss: the
// protocol ends near the accuracy an uninterrupted lossy run achieves.
TEST(SimulationCrashTest, RecoversUnderMessageLoss) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.faults.uplink_drop_rate = 0.1;
  config.faults.downlink_drop_rate = 0.1;
  config.faults.server_crash_step = 8;
  config.faults.server_recovery_steps = 3;
  config.checkpoint_stride = 4;

  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(30);
  EXPECT_EQ((*simulation)->metrics().server_crashes, 1);
  EXPECT_GE((*simulation)->CurrentAccuracy().agreement, 0.85);
}

// Lifecycle matching discipline under fire (DESIGN.md §12): with drops,
// duplicates, client cold-restarts and a server crash all active, every
// stamp must be accounted for — resolved, cancelled or still pending at
// export — never silently leaked, and duplicate terminal events must not
// inflate the resolved counts past the stamped ones.
TEST(SimulationCrashTest, LifecycleAccountingSurvivesFaultsAndCrash) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.faults.uplink_drop_rate = 0.15;
  config.faults.downlink_drop_rate = 0.15;
  config.faults.duplicate_rate = 0.1;
  config.faults.client_restart_rate = 0.02;
  config.faults.server_crash_step = 8;
  config.faults.server_recovery_steps = 2;
  config.checkpoint_stride = 4;
  config.obs.enable_lifecycle = true;
  config.obs.enable_heatmap = true;

  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(24);
  const obs::LifecycleTracker* lifecycle = (*simulation)->lifecycle();
  ASSERT_NE(lifecycle, nullptr);
  for (int k = 0; k < obs::LifecycleTracker::kNumKinds; ++k) {
    const auto kind = static_cast<obs::LifecycleTracker::Kind>(k);
    EXPECT_EQ(lifecycle->stamped(kind),
              lifecycle->resolved(kind) + lifecycle->cancelled(kind) +
                  lifecycle->pending(kind))
        << obs::LifecycleTracker::KindName(kind);
    EXPECT_LE(lifecycle->resolved(kind), lifecycle->stamped(kind))
        << obs::LifecycleTracker::KindName(kind);
  }
  // The run exercised real rounds, and the crash kinds both fired and
  // closed: the server restored and the protocol reconverged.
  EXPECT_GT(lifecycle->resolved(obs::LifecycleTracker::kUplinkRoundTrip), 0u);
  EXPECT_GT(lifecycle->resolved(obs::LifecycleTracker::kUplinkAck), 0u);
  EXPECT_EQ(lifecycle->resolved(obs::LifecycleTracker::kCrashRestore), 1u);
  // Reconvergence either completed (resolved) or is still honestly pending
  // under this fault pressure; the stamp fired either way.
  EXPECT_EQ(lifecycle->stamped(obs::LifecycleTracker::kCrashReconverge), 1u);
  // The drop/dup pressure is real: some rounds were retried or cancelled.
  EXPECT_GT(lifecycle->restamped(obs::LifecycleTracker::kUplinkAck) +
                lifecycle->cancelled(obs::LifecycleTracker::kUplinkAck),
            0u);
  // Heat maps stayed coherent across the crash/restore re-wiring: charges
  // landed both before and after the restore.
  const obs::HeatMap* heatmap = (*simulation)->heatmap();
  ASSERT_NE(heatmap, nullptr);
  EXPECT_GT(heatmap->ChannelSum(obs::HeatMap::kUplinks), 0u);
  EXPECT_GT(heatmap->ChannelSum(obs::HeatMap::kResidency), 0u);
}

// A cold-restarted client rebuilds its LQT through the reconciliation path:
// after a few post-restart steps it matches the LQT of the same client in
// an undisturbed twin run.
TEST(SimulationCrashTest, ClientRestartRebuildsLqt) {
  constexpr ObjectId kRestarted = 5;
  sim::SimulationConfig twin = SmallCrashConfig();
  sim::SimulationConfig restart = SmallCrashConfig();
  restart.faults.forced_restart_oid = kRestarted;
  restart.faults.forced_restart_step = 8;

  auto twin_sim = sim::Simulation::Make(twin);
  auto restart_sim = sim::Simulation::Make(restart);
  ASSERT_TRUE(twin_sim.ok());
  ASSERT_TRUE(restart_sim.ok());
  (*twin_sim)->Run(30);
  (*restart_sim)->Run(30);
  EXPECT_EQ((*restart_sim)->metrics().client_restarts, 1);

  auto qids = [](core::MobiEyesClient* client) {
    std::set<QueryId> out;
    for (const auto& entry : client->lqt()) out.insert(entry.qid);
    return out;
  };
  std::set<QueryId> twin_qids = qids((*twin_sim)->client(kRestarted));
  std::set<QueryId> restart_qids = qids((*restart_sim)->client(kRestarted));
  EXPECT_FALSE(twin_qids.empty());
  EXPECT_EQ(restart_qids, twin_qids);
  EXPECT_EQ((*restart_sim)->client(kRestarted)->has_mq(),
            (*twin_sim)->client(kRestarted)->has_mq());
}

// When the WAL overflows (tiny budget, sparse checkpoints) the restore is
// stale by design; leases + reconciliation must still close the gap.
TEST(SimulationCrashTest, WalOverflowStillConverges) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.faults.server_crash_step = 10;
  config.faults.server_recovery_steps = 2;
  config.checkpoint_stride = 0;  // baseline checkpoint only
  config.wal_limit = 16;

  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(40);
  sim::RunMetrics metrics = (*simulation)->metrics();
  EXPECT_EQ(metrics.server_crashes, 1);
  EXPECT_GT(metrics.wal_records_dropped, 0u);
  EXPECT_EQ(metrics.wal_records_replayed, 16u);
  EXPECT_GE((*simulation)->CurrentAccuracy().agreement, 0.95);
}

// WAL replay is part of the sweep determinism contract: crash-recovery
// cells must produce byte-identical deterministic reports for any worker
// count.
TEST(SimulationCrashTest, WalReplayIsThreadCountInvariant) {
  std::vector<bench::SweepJob> jobs;
  for (int stride : {1, 4}) {
    bench::SweepJob job;
    job.params.num_objects = 200;
    job.params.num_queries = 20;
    job.params.velocity_changes_per_step = 20;
    job.params.area_square_miles = 10000.0;
    job.params.seed = 23;
    job.mode = sim::SimMode::kMobiEyesEager;
    job.options.steps = 16;
    job.options.warmup_steps = 2;
    job.options.measure_error = true;
    job.options.checkpoint_stride = stride;
    job.options.wal_limit = 64;
    job.faults.plan.server_crash_step = 8;
    job.faults.plan.server_recovery_steps = 2;
    job.faults.plan.client_restart_rate = 0.01;
    job.faults.harden = true;
    jobs.push_back(job);
  }
  bench::SweepObsOptions obs;
  obs.metrics = true;
  obs.sample_stride = 1;
  std::vector<bench::SweepCellResult> serial =
      bench::RunSweepObserved(jobs, 1, obs);
  std::vector<bench::SweepCellResult> parallel =
      bench::RunSweepObserved(jobs, 4, obs);
  ASSERT_EQ(serial.size(), jobs.size());
  for (size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(serial[k].metrics.server_crashes, 1) << "job " << k;
    EXPECT_EQ(serial[k].metrics.wal_records_replayed,
              parallel[k].metrics.wal_records_replayed)
        << "job " << k;
    EXPECT_EQ(serial[k].metrics.client_restarts,
              parallel[k].metrics.client_restarts)
        << "job " << k;
    EXPECT_FALSE(serial[k].metrics_json.empty()) << "job " << k;
    EXPECT_EQ(serial[k].metrics_json, parallel[k].metrics_json)
        << "job " << k;
  }
}

}  // namespace
}  // namespace mobieyes

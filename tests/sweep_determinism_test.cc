// RunSweep must produce the same table no matter how many workers execute
// it: every cell is an independent simulation seeded from its own params,
// and results are collected by job index. These tests pin that contract by
// comparing every counting (wall-clock-free) metric between a strictly
// serial sweep and a multi-threaded sweep of the same jobs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "mobieyes/core/rebalance.h"

namespace mobieyes::bench {
namespace {

std::vector<SweepJob> SmallSweep() {
  std::vector<SweepJob> jobs;
  RunOptions options;
  options.steps = 4;
  options.warmup_steps = 1;
  options.measure_error = true;
  for (double alpha : {5.0, 10.0}) {
    for (sim::SimMode mode :
         {sim::SimMode::kMobiEyesEager, sim::SimMode::kMobiEyesLazy,
          sim::SimMode::kNaive, sim::SimMode::kCentralOptimal}) {
      SweepJob job;
      job.params.num_objects = 200;
      job.params.num_queries = 20;
      job.params.velocity_changes_per_step = 20;
      job.params.area_square_miles = 10000.0;  // 100 x 100
      job.params.alpha = alpha;
      job.params.base_station_side = 20.0;
      job.params.seed = 7 + static_cast<uint64_t>(alpha);
      job.mode = mode;
      job.options = options;
      jobs.push_back(job);
    }
  }
  return jobs;
}

// The deterministic (seed-only) portion of RunMetrics: everything except
// the stopwatch-based fields, which measure host wall time and jitter even
// between two serial runs.
void ExpectDeterministicFieldsEqual(const sim::RunMetrics& a,
                                    const sim::RunMetrics& b,
                                    const std::string& context) {
  EXPECT_EQ(a.steps, b.steps) << context;
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds) << context;
  EXPECT_EQ(a.objects, b.objects) << context;
  EXPECT_EQ(a.network.uplink_messages, b.network.uplink_messages) << context;
  EXPECT_EQ(a.network.downlink_messages, b.network.downlink_messages)
      << context;
  EXPECT_EQ(a.network.broadcast_messages, b.network.broadcast_messages)
      << context;
  EXPECT_EQ(a.network.uplink_bytes, b.network.uplink_bytes) << context;
  EXPECT_EQ(a.network.downlink_bytes, b.network.downlink_bytes) << context;
  EXPECT_EQ(a.network.broadcast_receptions, b.network.broadcast_receptions)
      << context;
  EXPECT_EQ(a.lqt_size_sum, b.lqt_size_sum) << context;
  EXPECT_EQ(a.error_sum, b.error_sum) << context;
  EXPECT_EQ(a.spurious_sum, b.spurious_sum) << context;
  EXPECT_EQ(a.agreement_sum, b.agreement_sum) << context;
  EXPECT_EQ(a.error_samples, b.error_samples) << context;
  EXPECT_EQ(a.queries_evaluated, b.queries_evaluated) << context;
  EXPECT_EQ(a.safe_period_skips, b.safe_period_skips) << context;
  EXPECT_EQ(a.network.uplink_dropped, b.network.uplink_dropped) << context;
  EXPECT_EQ(a.network.downlink_dropped, b.network.downlink_dropped) << context;
  EXPECT_EQ(a.network.broadcast_dropped, b.network.broadcast_dropped)
      << context;
  EXPECT_EQ(a.network.delayed_messages, b.network.delayed_messages) << context;
  EXPECT_EQ(a.network.duplicated_messages, b.network.duplicated_messages)
      << context;
  EXPECT_EQ(a.network.disconnect_events, b.network.disconnect_events)
      << context;
}

TEST(SweepDeterminismTest, SerialAndParallelSweepsAgree) {
  std::vector<SweepJob> jobs = SmallSweep();
  std::vector<sim::RunMetrics> serial = RunSweep(jobs, 1);
  std::vector<sim::RunMetrics> parallel = RunSweep(jobs, 4);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (size_t k = 0; k < jobs.size(); ++k) {
    ExpectDeterministicFieldsEqual(
        serial[k], parallel[k],
        "job " + std::to_string(k) + " (" + sim::SimModeName(jobs[k].mode) +
            ")");
    // The cells do real work; a zero-message result would mean a silently
    // failed setup rather than a determinism win.
    EXPECT_GT(serial[k].network.total_messages(), 0u);
  }
}

TEST(SweepDeterminismTest, RepeatedParallelSweepsAgree) {
  std::vector<SweepJob> jobs = SmallSweep();
  std::vector<sim::RunMetrics> first = RunSweep(jobs, 4);
  std::vector<sim::RunMetrics> second = RunSweep(jobs, 4);
  for (size_t k = 0; k < jobs.size(); ++k) {
    ExpectDeterministicFieldsEqual(first[k], second[k],
                                   "job " + std::to_string(k));
  }
}

// Fault injection is seeded like everything else, so faulty cells (base and
// hardened alike) must also be thread-count invariant — drops, delays and
// disconnects included.
TEST(SweepDeterminismTest, FaultySweepsAreThreadCountInvariant) {
  std::vector<SweepJob> jobs = SmallSweep();
  for (size_t k = 0; k < jobs.size(); ++k) {
    if (jobs[k].mode != sim::SimMode::kMobiEyesEager &&
        jobs[k].mode != sim::SimMode::kMobiEyesLazy) {
      continue;  // fault plans target the MobiEyes protocol paths
    }
    jobs[k].faults.plan.uplink_drop_rate = 0.15;
    jobs[k].faults.plan.downlink_drop_rate = 0.15;
    jobs[k].faults.plan.delay_rate = 0.1;
    jobs[k].faults.plan.max_delay_steps = 2;
    jobs[k].faults.plan.duplicate_rate = 0.05;
    jobs[k].faults.plan.disconnect_rate = 0.2;
    jobs[k].faults.plan.disconnect_period_steps = 4;
    jobs[k].faults.plan.disconnect_duration_steps = 1;
    jobs[k].faults.harden = k % 2 == 0;
  }
  std::vector<sim::RunMetrics> serial = RunSweep(jobs, 1);
  std::vector<sim::RunMetrics> parallel = RunSweep(jobs, 4);
  bool saw_faults = false;
  for (size_t k = 0; k < jobs.size(); ++k) {
    ExpectDeterministicFieldsEqual(
        serial[k], parallel[k],
        "faulty job " + std::to_string(k) + " (" +
            sim::SimModeName(jobs[k].mode) + ")");
    saw_faults = saw_faults || serial[k].network.total_dropped() > 0;
  }
  EXPECT_TRUE(saw_faults);
}

// The observability report is part of the determinism contract: the
// deterministic export excludes wall-clock instruments, so the JSON string
// for every cell must be byte-identical between a serial and a parallel
// sweep (this is what makes --metrics-json reproducible).
TEST(SweepDeterminismTest, MetricsReportsAreThreadCountInvariant) {
  std::vector<SweepJob> jobs = SmallSweep();
  SweepObsOptions obs;
  obs.metrics = true;
  obs.sample_stride = 1;
  std::vector<SweepCellResult> serial = RunSweepObserved(jobs, 1, obs);
  std::vector<SweepCellResult> parallel = RunSweepObserved(jobs, 4, obs);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (size_t k = 0; k < jobs.size(); ++k) {
    const std::string context = "job " + std::to_string(k) + " (" +
                                sim::SimModeName(jobs[k].mode) + ")";
    ExpectDeterministicFieldsEqual(serial[k].metrics, parallel[k].metrics,
                                   context);
    EXPECT_FALSE(serial[k].metrics_json.empty()) << context;
    EXPECT_EQ(serial[k].metrics_json, parallel[k].metrics_json) << context;
    // A real report, not a stub: it carries per-type message counters and a
    // per-step series.
    EXPECT_NE(serial[k].metrics_json.find("net.msgs."), std::string::npos)
        << context;
    EXPECT_NE(serial[k].metrics_json.find("uplink_msgs"), std::string::npos)
        << context;
  }
}

// Turning observability on must not perturb the simulation itself: the
// counting metrics are identical with and without metrics/trace enabled.
TEST(SweepDeterminismTest, ObservabilityDoesNotPerturbResults) {
  std::vector<SweepJob> jobs = SmallSweep();
  SweepObsOptions off;
  SweepObsOptions on;
  on.metrics = true;
  on.trace = true;
  on.sample_stride = 2;
  std::vector<SweepCellResult> plain = RunSweepObserved(jobs, 2, off);
  std::vector<SweepCellResult> observed = RunSweepObserved(jobs, 2, on);
  for (size_t k = 0; k < jobs.size(); ++k) {
    ExpectDeterministicFieldsEqual(plain[k].metrics, observed[k].metrics,
                                   "job " + std::to_string(k));
    EXPECT_TRUE(plain[k].metrics_json.empty());
    EXPECT_TRUE(plain[k].trace_events.empty());
    EXPECT_FALSE(observed[k].trace_events.empty());
    // Cells are tagged with their job index as the trace pid.
    EXPECT_EQ(observed[k].trace_events.front().pid, static_cast<int32_t>(k));
  }
}

// MobiEyes-only jobs (the sharded server exists only in MobiEyes modes)
// with the hardened protocol and fault pressure, so the comparison covers
// dedup rings, leases and reconciliation across shard layouts too.
std::vector<SweepJob> ShardedSweep(int num_shards, int shard_threads) {
  std::vector<SweepJob> jobs;
  for (SweepJob& job : SmallSweep()) {
    if (job.mode != sim::SimMode::kMobiEyesEager &&
        job.mode != sim::SimMode::kMobiEyesLazy) {
      continue;
    }
    job.mobieyes.sharding.num_shards = num_shards;
    job.options.shard_threads = shard_threads;
    job.options.checkpoint_stride = 2;  // exercise parallel chunk encoding
    job.faults.plan.uplink_drop_rate = 0.1;
    job.faults.plan.downlink_drop_rate = 0.1;
    job.faults.harden = true;
    jobs.push_back(job);
  }
  return jobs;
}

// The tentpole contract (DESIGN.md §10): the shard count is invisible. For
// any --shards value, every deterministic
// metric, the full timing-free observability report, the oracle-accuracy
// sums and the final per-query result sets must be byte-identical to the
// single-shard (monolith) run.
TEST(SweepDeterminismTest, ShardCountIsObservablyInvisible) {
  SweepObsOptions obs;
  obs.metrics = true;
  obs.sample_stride = 1;
  obs.capture_results = true;
  std::vector<SweepCellResult> mono =
      RunSweepObserved(ShardedSweep(1, 1), 2, obs);
  ASSERT_FALSE(mono.empty());
  for (int shards : {2, 4, 8}) {
    std::vector<SweepCellResult> sharded =
        RunSweepObserved(ShardedSweep(shards, 1), 2, obs);
    ASSERT_EQ(sharded.size(), mono.size());
    uint64_t handoffs = 0;
    for (size_t k = 0; k < mono.size(); ++k) {
      const std::string context = std::to_string(shards) + " shards job " +
                                  std::to_string(k);
      ExpectDeterministicFieldsEqual(mono[k].metrics, sharded[k].metrics,
                                     context);
      EXPECT_EQ(mono[k].metrics_json, sharded[k].metrics_json) << context;
      EXPECT_EQ(mono[k].query_results, sharded[k].query_results) << context;
      EXPECT_FALSE(sharded[k].query_results.empty()) << context;
      EXPECT_EQ(mono[k].metrics.network.inter_shard_messages, 0u) << context;
      handoffs += sharded[k].metrics.network.inter_shard_handoffs;
    }
    // The equivalence must be earned: focal objects do cross partition
    // boundaries under every multi-shard layout of this workload.
    EXPECT_GT(handoffs, 0u) << shards << " shards";
  }
}

// The SoA world's span index orders each cell's objects canonically
// (ascending oid), as a pure function of current positions rather than of
// insertion/migration history. This run-to-run byte comparison of the full
// observability report and the per-query result sets would catch any
// history- or address-dependent ordering leaking out of the new layout —
// note RepeatedParallelSweepsAgree above only compares counter fields.
TEST(SweepDeterminismTest, RepeatedObservedRunsAreByteIdentical) {
  SweepObsOptions obs;
  obs.metrics = true;
  obs.sample_stride = 1;
  obs.capture_results = true;
  std::vector<SweepJob> jobs = ShardedSweep(2, 2);
  std::vector<SweepCellResult> first = RunSweepObserved(jobs, 2, obs);
  std::vector<SweepCellResult> second = RunSweepObserved(jobs, 2, obs);
  ASSERT_EQ(first.size(), second.size());
  for (size_t k = 0; k < first.size(); ++k) {
    const std::string context = "observed job " + std::to_string(k);
    EXPECT_FALSE(first[k].metrics_json.empty()) << context;
    EXPECT_EQ(first[k].metrics_json, second[k].metrics_json) << context;
    EXPECT_EQ(first[k].query_results, second[k].query_results) << context;
    EXPECT_FALSE(first[k].query_results.empty()) << context;
  }
}

// The second-generation observability exports obey the same contract
// (DESIGN.md §12): heat maps accumulate integer windows per shard and merge
// in fixed shard order, and lifecycle latencies are measured on the virtual
// step clock, so both deterministic exports must be byte-identical across
// every shard count x thread count layout.
TEST(SweepDeterminismTest, HeatMapAndLifecycleAreLayoutInvariant) {
  SweepObsOptions obs;
  obs.metrics = true;
  obs.sample_stride = 1;
  obs.heatmap = true;
  obs.lifecycle = true;
  std::vector<SweepCellResult> mono =
      RunSweepObserved(ShardedSweep(1, 1), 1, obs);
  ASSERT_FALSE(mono.empty());
  for (size_t k = 0; k < mono.size(); ++k) {
    EXPECT_FALSE(mono[k].heatmap_json.empty());
    // The deterministic flavor carries the partition-invariant channels and
    // omits the layout-dependent one.
    EXPECT_NE(mono[k].heatmap_json.find("\"uplinks\""), std::string::npos);
    EXPECT_NE(mono[k].heatmap_json.find("\"residency\""), std::string::npos);
    EXPECT_EQ(mono[k].heatmap_json.find("\"handoffs\""), std::string::npos);
    // Lifecycle tables ride inside the observability report.
    EXPECT_NE(mono[k].metrics_json.find("\"lifecycle\""), std::string::npos);
    EXPECT_NE(mono[k].metrics_json.find("uplink_round_trip"),
              std::string::npos);
    EXPECT_EQ(mono[k].metrics_json.find("\"handoff\""), std::string::npos);
  }
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      if (shards == 1 && threads == 1) continue;  // the baseline itself
      std::vector<SweepCellResult> layout =
          RunSweepObserved(ShardedSweep(shards, threads), threads, obs);
      ASSERT_EQ(layout.size(), mono.size());
      for (size_t k = 0; k < mono.size(); ++k) {
        const std::string context = "shards=" + std::to_string(shards) +
                                    " threads=" + std::to_string(threads) +
                                    " job " + std::to_string(k);
        EXPECT_EQ(mono[k].heatmap_json, layout[k].heatmap_json) << context;
        EXPECT_EQ(mono[k].metrics_json, layout[k].metrics_json) << context;
      }
    }
  }
}

// At a fixed shard count, neither the sweep's cell-level worker count nor
// the server's own shard_threads pool may leak into results: the step-phase
// workers scan contiguous id slices whose outputs concatenate in order. The
// rebalanced input (hotspots, --rebalance=1:1.05:8 as in the step
// benchmark's hotspot_sharded_2k) also moves cells and focal objects
// between shards every planning point.
TEST(SweepDeterminismTest, ShardedSweepsAreThreadCountInvariant) {
  SweepObsOptions obs;
  obs.metrics = true;
  obs.sample_stride = 1;
  obs.capture_results = true;
  core::ShardingOptions rebalancing;
  rebalancing.num_shards = 4;
  ASSERT_TRUE(core::ParseRebalanceSpec("1:1.05:8", &rebalancing).ok());
  for (bool rebalanced : {false, true}) {
    auto sweep = [&](int threads) {
      std::vector<SweepJob> jobs = ShardedSweep(4, threads);
      if (rebalanced) {
        for (SweepJob& job : jobs) {
          job.params.object_distribution = sim::ObjectDistribution::kHotspot;
          job.mobieyes.sharding = rebalancing;
        }
      }
      return RunSweepObserved(jobs, threads, obs);
    };
    std::vector<SweepCellResult> serial = sweep(1);
    std::vector<SweepCellResult> parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    uint64_t rebalance_events = 0;
    for (size_t k = 0; k < serial.size(); ++k) {
      const std::string context =
          std::string(rebalanced ? "rebalanced" : "static") +
          " sharded job " + std::to_string(k);
      const sim::RunMetrics& a = serial[k].metrics;
      const sim::RunMetrics& b = parallel[k].metrics;
      ExpectDeterministicFieldsEqual(a, b, context);
      EXPECT_EQ(serial[k].metrics_json, parallel[k].metrics_json) << context;
      EXPECT_EQ(serial[k].query_results, parallel[k].query_results) << context;
      EXPECT_EQ(a.rebalance_events, b.rebalance_events) << context;
      EXPECT_EQ(a.rebalance_cells_moved, b.rebalance_cells_moved) << context;
      EXPECT_EQ(a.rebalance_focals_moved, b.rebalance_focals_moved) << context;
      EXPECT_EQ(a.rebalance_rqi_ids_moved, b.rebalance_rqi_ids_moved)
          << context;
      EXPECT_EQ(a.rebalance_epoch, b.rebalance_epoch) << context;
      rebalance_events += a.rebalance_events;
    }
    // The rebalanced equivalence must be earned: the partition really moved.
    if (rebalanced) {
      EXPECT_GT(rebalance_events, 0u);
    }
  }
}

}  // namespace
}  // namespace mobieyes::bench

// Server sharding (DESIGN.md §10): server-side step-phase time and messaging
// cost vs the shard count, at 10k and 100k objects. Every cell runs the same
// hardened workload with per-step checkpoints, varying only --shards, and the
// sweep reports:
//
//   - step phase s/step (measured wall time) and the *parallel speedup*:
//     monolith step time over (step - sum_of_shard_bodies + max_shard_body),
//     i.e. the serial remainder plus the critical path — what a perfectly
//     parallel step would cost. This bound is independent of how many
//     hardware threads this machine has (the measured wall-clock speedup is
//     printed too, but it saturates at the machine's core count),
//   - wireless vs coordinator-backplane messaging, including the
//     cross-shard handoff rate,
//   - an equivalence check: every multi-shard cell's final result sets must
//     match the monolith cell's bit for bit (the sharding contract).
//
// Cells run strictly serially (never across a worker pool) so the wall
// times are honest. Shard bodies run *inline* by default (shard_threads=1):
// that keeps each per-shard measurement uncontended CPU time, which the
// parallel-speedup model needs — with a pool oversubscribing the machine's
// cores, descheduled shard bodies inflate their own wall times and the
// model overestimates. Pass --shard-threads=8 on a machine with >= 8 cores
// to see the measured wall-clock column approach the model.
//
// Gate flags for CI (exit 1 on violation):
//   --require-match        fail unless every multi-shard cell matches the
//                          monolith's result sets and wireless totals
//   --require-speedup=X    fail unless the parallel speedup of the largest
//                          cell (most shards, most objects) is >= X

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;         // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

namespace {

const int kShardCounts[] = {1, 2, 4, 8};
const int kObjectCounts[] = {10000, 100000};

constexpr int kMeasuredSteps = 12;
constexpr int kWarmupSteps = 2;
// Shard bodies run inline by default (see the header comment); override
// with --shard-threads on machines with enough cores.
constexpr int kDefaultShardThreads = 1;

SweepJob MakeJob(int objects, int shards) {
  SweepJob job;
  job.params.num_objects = objects;
  job.params.num_queries = objects / 100;
  job.params.velocity_changes_per_step = objects / 10;
  job.mode = sim::SimMode::kMobiEyesEager;
  job.options.steps = kMeasuredSteps;
  job.options.warmup_steps = kWarmupSteps;
  // Per-step checkpoints keep the (parallelizable) image encoding in the
  // measured step phase, as a sharded production server would run.
  job.options.checkpoint_stride = 1;
  job.options.shard_threads = kDefaultShardThreads;
  job.faults.harden = true;
  job.mobieyes.sharding.num_shards = shards;
  job.label = "shard_sweep objects=" + std::to_string(objects) +
              " shards=" + std::to_string(shards);
  return ApplyFlagOverrides(job);
}

double PerStep(double total, const sim::RunMetrics& m) {
  return m.steps > 0 ? total / static_cast<double>(m.steps) : 0.0;
}

// mono_step / value, guarded against ~0 denominators on tiny smoke runs.
double Speedup(double mono_step, double value) {
  return value > 1e-9 ? mono_step / value : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("shard_sweep", argc, argv);
  bool require_match = false;
  double require_speedup = 0.0;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--require-match") == 0) {
      require_match = true;
    } else if (std::strncmp(argv[k], "--require-speedup=", 18) == 0) {
      require_speedup = std::atof(argv[k] + 18);
    }
  }

  SweepObsOptions obs;
  obs.capture_results = true;

  bool all_match = true;
  double final_parallel_speedup = 0.0;

  for (int objects : kObjectCounts) {
    std::vector<SweepJob> jobs;
    for (int shards : kShardCounts) jobs.push_back(MakeJob(objects, shards));
    // With --objects the cells collapse to the override value; keep the
    // sweep meaningful by labeling with the effective count.
    const int effective_objects = jobs[0].params.num_objects;
    std::vector<SweepCellResult> cells = RunSweepObserved(jobs, 1, obs);

    const SweepCellResult& mono = cells[0];
    const double mono_step = mono.metrics.server_step_seconds;

    std::vector<double> xs;
    std::vector<Series> timing = {
        {"step s/step", {}},          {"max shard s/step", {}},
        {"parallel speedup", {}},     {"measured speedup", {}},
        {"server load s/step", {}},
    };
    std::vector<Series> messaging = {
        {"wireless msgs/step", {}},  {"backplane msgs/step", {}},
        {"backplane KB/step", {}},   {"handoffs/step", {}},
        {"results match", {}},
    };
    for (size_t k = 0; k < cells.size(); ++k) {
      const sim::RunMetrics& m = cells[k].metrics;
      xs.push_back(static_cast<double>(jobs[k].mobieyes.sharding.num_shards));

      timing[0].values.push_back(PerStep(m.server_step_seconds, m));
      timing[1].values.push_back(PerStep(m.server_step_max_shard_seconds, m));
      // Serial remainder + critical path: the cost of a perfectly parallel
      // step, whatever this machine's core count.
      const double parallel_step = m.server_step_seconds -
                                   m.server_step_shard_seconds +
                                   m.server_step_max_shard_seconds;
      const double parallel = Speedup(mono_step, parallel_step);
      timing[2].values.push_back(parallel);
      timing[3].values.push_back(Speedup(mono_step, m.server_step_seconds));
      timing[4].values.push_back(PerStep(m.server_seconds, m));

      messaging[0].values.push_back(
          PerStep(static_cast<double>(m.network.total_messages()), m));
      messaging[1].values.push_back(
          PerStep(static_cast<double>(m.network.inter_shard_messages), m));
      messaging[2].values.push_back(
          PerStep(static_cast<double>(m.network.inter_shard_bytes), m) /
          1024.0);
      messaging[3].values.push_back(
          PerStep(static_cast<double>(m.network.inter_shard_handoffs), m));

      // The sharding contract: identical result sets and wireless totals,
      // whatever the shard count.
      bool match =
          cells[k].query_results == mono.query_results &&
          m.network.uplink_bytes == mono.metrics.network.uplink_bytes &&
          m.network.downlink_bytes == mono.metrics.network.downlink_bytes;
      messaging[4].values.push_back(match ? 1.0 : 0.0);
      if (!match) {
        all_match = false;
        std::fprintf(stderr,
                     "[shard_sweep] MISMATCH vs monolith: %s\n",
                     jobs[k].label.c_str());
      }
      if (k + 1 == cells.size()) {
        final_parallel_speedup = parallel;
      }
    }

    const std::string suffix =
        " (" + std::to_string(effective_objects) + " objects)";
    PrintTable("Shard sweep: server step phase" + suffix, "shards", xs,
               timing);
    PrintTable("Shard sweep: messaging" + suffix, "shards", xs, messaging);
  }

  // Online rebalancing (DESIGN.md §15): the hotspot distribution pins one
  // shard under the static partition; the rebalanced cells run the same
  // workload with --rebalance semantics on and report the per-shard step
  // time spread (max-shard body over the mean body — 1.0 is perfectly
  // even), the handoff volume including migration-driven handoffs, and the
  // wall speedup of the rebalanced step phase over the static one. Result
  // sets must stay identical: the partition is an implementation detail.
  {
    std::vector<double> xs;
    int effective_objects = kObjectCounts[0];
    std::vector<Series> rebalance = {
        {"static spread", {}},        {"rebal spread", {}},
        {"static handoffs/step", {}}, {"rebal handoffs/step", {}},
        {"rebal step speedup", {}},   {"cells moved", {}},
        {"results match", {}},
    };
    for (int shards : kShardCounts) {
      if (shards < 2) continue;
      SweepJob static_job = MakeJob(kObjectCounts[0], shards);
      static_job.params.object_distribution =
          sim::ObjectDistribution::kHotspot;
      effective_objects = static_job.params.num_objects;
      static_job.label += " hotspot static";
      SweepJob rebal_job = static_job;
      rebal_job.mobieyes.sharding.rebalance_stride = 2;
      rebal_job.mobieyes.sharding.rebalance_threshold = 1.1;
      rebal_job.mobieyes.sharding.rebalance_max_moves = 16;
      rebal_job.label = static_job.label + " rebalanced";
      std::vector<SweepCellResult> pair =
          RunSweepObserved({static_job, rebal_job}, 1, obs);
      const sim::RunMetrics& s = pair[0].metrics;
      const sim::RunMetrics& r = pair[1].metrics;
      xs.push_back(static_cast<double>(shards));

      auto spread = [shards](const sim::RunMetrics& m) {
        const double mean =
            m.server_step_shard_seconds / static_cast<double>(shards);
        return mean > 1e-12 ? m.server_step_max_shard_seconds / mean : 0.0;
      };
      rebalance[0].values.push_back(spread(s));
      rebalance[1].values.push_back(spread(r));
      rebalance[2].values.push_back(
          PerStep(static_cast<double>(s.network.inter_shard_handoffs), s));
      rebalance[3].values.push_back(
          PerStep(static_cast<double>(r.network.inter_shard_handoffs), r));
      rebalance[4].values.push_back(
          Speedup(s.server_step_seconds, r.server_step_seconds));
      rebalance[5].values.push_back(
          static_cast<double>(r.rebalance_cells_moved));
      bool match = pair[1].query_results == pair[0].query_results;
      rebalance[6].values.push_back(match ? 1.0 : 0.0);
      if (!match) {
        all_match = false;
        std::fprintf(stderr, "[shard_sweep] MISMATCH vs static: %s\n",
                     rebal_job.label.c_str());
      }
    }
    PrintTable("Shard sweep: hotspot rebalancing (" +
                   std::to_string(effective_objects) + " objects)",
               "shards", xs, rebalance);
  }

  int status = FinishBench();
  if (require_match && !all_match) {
    std::fprintf(stderr,
                 "[shard_sweep] FAIL: multi-shard cells diverged from the "
                 "monolith\n");
    return 1;
  }
  // The parallel-speedup model needs at least two cores for the shard
  // bodies to overlap even in principle; on a single-core host the gate
  // would fail for reasons that have nothing to do with the code.
  if (require_speedup > 0.0 && std::thread::hardware_concurrency() < 2) {
    std::fprintf(stderr,
                 "[shard_sweep] SKIP: --require-speedup=%.3f not enforced "
                 "on a single-core host\n",
                 require_speedup);
    require_speedup = 0.0;
  }
  if (require_speedup > 0.0 && final_parallel_speedup < require_speedup) {
    std::fprintf(stderr,
                 "[shard_sweep] FAIL: parallel speedup %.3f < required %.3f "
                 "(largest cell)\n",
                 final_parallel_speedup, require_speedup);
    return 1;
  }
  return status;
}

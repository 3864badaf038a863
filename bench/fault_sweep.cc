// Fault tolerance: query result accuracy under message loss, for the base
// protocol and the hardened protocol (acks + retries, soft-state leases,
// periodic reconciliation). Sweeps the symmetric drop rate and reports the
// oracle accuracy metrics (missing / spurious / Jaccard agreement) plus the
// message cost of hardening. A second sweep adds delays, duplicates and
// object disconnects on top of the drops.
//
// Harness fault flags (--drop-rate, --delay-steps, --outage, --seed,
// --harden, ...) override every cell, so the CI smoke can re-run single
// points cheaply.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;         // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

namespace {

SweepJob MakeJob(double drop, bool harden, bool mixed) {
  SweepJob job;
  // Sized so 16 cells with per-step oracle evaluation finish quickly while
  // still exercising grouping, leases and reconciliation.
  job.params.num_objects = 2000;
  job.params.num_queries = 200;
  job.params.velocity_changes_per_step = 200;
  job.mode = sim::SimMode::kMobiEyesEager;
  job.options.steps = 20;
  job.options.measure_error = true;
  job.faults.plan.uplink_drop_rate = drop;
  job.faults.plan.downlink_drop_rate = drop;
  if (mixed) {
    job.faults.plan.delay_rate = 0.2;
    job.faults.plan.max_delay_steps = 2;
    job.faults.plan.duplicate_rate = 0.05;
    job.faults.plan.disconnect_rate = 0.1;
    job.faults.plan.disconnect_period_steps = 20;
    job.faults.plan.disconnect_duration_steps = 4;
  }
  job.faults.harden = harden;
  job.label = std::string(mixed ? "mixed" : "drop") +
              " p=" + std::to_string(drop) +
              (harden ? " hardened" : " base");
  return job;
}

void PrintSweep(const std::string& title, const std::vector<double>& drops,
                const std::vector<sim::RunMetrics>& results) {
  // Cells are laid out drop-major: (base, hardened) per drop rate.
  std::vector<Series> accuracy = {
      {"missing base", {}},   {"missing hard", {}}, {"spurious base", {}},
      {"spurious hard", {}},  {"agree base", {}},   {"agree hard", {}},
  };
  std::vector<Series> cost = {
      {"msg/s base", {}},    {"msg/s hard", {}},  {"dropped base", {}},
      {"dropped hard", {}},  {"delayed hard", {}}, {"dup hard", {}},
  };
  for (size_t row = 0; row < drops.size(); ++row) {
    const sim::RunMetrics& base = results[2 * row];
    const sim::RunMetrics& hard = results[2 * row + 1];
    accuracy[0].values.push_back(base.AverageError());
    accuracy[1].values.push_back(hard.AverageError());
    accuracy[2].values.push_back(base.AverageSpurious());
    accuracy[3].values.push_back(hard.AverageSpurious());
    accuracy[4].values.push_back(base.AverageAgreement());
    accuracy[5].values.push_back(hard.AverageAgreement());
    cost[0].values.push_back(base.MessagesPerSecond());
    cost[1].values.push_back(hard.MessagesPerSecond());
    cost[2].values.push_back(static_cast<double>(base.network.total_dropped()));
    cost[3].values.push_back(static_cast<double>(hard.network.total_dropped()));
    cost[4].values.push_back(
        static_cast<double>(hard.network.delayed_messages));
    cost[5].values.push_back(
        static_cast<double>(hard.network.duplicated_messages));
  }
  PrintTable(title + ": accuracy vs oracle", "drop rate", drops, accuracy);
  PrintTable(title + ": message cost", "drop rate", drops, cost);
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("fault_sweep", argc, argv);

  std::vector<double> drops = {0.0, 0.02, 0.05, 0.1, 0.2};
  std::vector<SweepJob> jobs;
  for (double drop : drops) {
    jobs.push_back(MakeJob(drop, /*harden=*/false, /*mixed=*/false));
    jobs.push_back(MakeJob(drop, /*harden=*/true, /*mixed=*/false));
  }
  std::vector<double> mixed_drops = {0.0, 0.05, 0.1};
  for (double drop : mixed_drops) {
    jobs.push_back(MakeJob(drop, /*harden=*/false, /*mixed=*/true));
    jobs.push_back(MakeJob(drop, /*harden=*/true, /*mixed=*/true));
  }

  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  PrintSweep("Fault sweep (drops only)", drops,
             {results.begin(), results.begin() + 2 * drops.size()});
  PrintSweep("Fault sweep (drops + delay/dup/disconnect)", mixed_drops,
             {results.begin() + 2 * drops.size(), results.end()});

  return FinishBench();
}

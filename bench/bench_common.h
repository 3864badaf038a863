#ifndef MOBIEYES_BENCH_BENCH_COMMON_H_
#define MOBIEYES_BENCH_BENCH_COMMON_H_

// Shared harness for the figure-reproduction benches: fan the sweep's
// (x-value, mode) cells across a worker pool, then print paper-style tables
// (one row per x-value, one column per series) and optionally a
// machine-readable JSON report.
//
// Every cell is one fully independent simulation with its own seeded RNG
// (the seed travels inside SimulationParams), so the table contents do not
// depend on the thread count: results are collected by job index, never by
// completion order. Only the wall-clock metrics (server/client seconds)
// jitter run-to-run — exactly as they already did serially.

#include <string>
#include <vector>

#include "mobieyes/core/options.h"
#include "mobieyes/obs/trace_recorder.h"
#include "mobieyes/sim/simulation.h"

namespace mobieyes::bench {

struct RunOptions {
  int steps = 10;
  int warmup_steps = 2;
  bool measure_error = false;
  bool track_per_object_bytes = false;
  // Crash recovery (MobiEyes modes): server checkpoint stride in steps
  // (0 = only the setup-time baseline checkpoint when a crash is planned)
  // and the WAL record budget between checkpoints.
  int checkpoint_stride = 0;
  size_t wal_limit = 4096;
  // Worker threads for the server's per-shard step phase (shard count
  // itself lives in MobiEyesOptions::sharding).
  int shard_threads = 1;
};

// Fault-injection knobs of one sweep cell (see SweepJob): the plan handed
// to the simulation and whether to run the hardened protocol variant
// (core::HardenedOptions) on top of the job's MobiEyes options.
struct FaultOptions {
  net::FaultPlan plan;
  bool harden = false;
};

// Builds, warms up and runs one simulation; returns its metrics.
sim::RunMetrics RunMode(const sim::SimulationParams& params,
                        sim::SimMode mode, const RunOptions& options = {},
                        const core::MobiEyesOptions& mobieyes = {});

// One sweep cell: an independent simulation to run.
struct SweepJob {
  sim::SimulationParams params;
  sim::SimMode mode = sim::SimMode::kMobiEyesEager;
  RunOptions options;
  core::MobiEyesOptions mobieyes;
  FaultOptions faults;
  std::string label;  // progress note, e.g. "fig03 alpha=2 EQP"
};

// Parses harness flags out of argv (unknown arguments are left alone) and
// starts the bench wall clock. Call first in main().
//   --threads=N        worker threads for RunSweep (default: hardware
//                      threads; 1 runs strictly serially)
//   --json=PATH        also write every printed table to PATH as JSON
//   --trace=PATH       record Chrome-trace spans in every sweep cell and
//                      write one merged Perfetto-loadable file to PATH
//                      (one "process" per cell, labeled by the job label)
//   --metrics-json=PATH  per-cell MetricsRegistry + per-step series report
//                      (lifecycle latency tables included); deterministic
//                      (wall-clock instruments excluded), so the file is
//                      identical for any --threads value
//   --sample-stride=N  per-step sampling stride inside each cell
//                      (default 1 when --metrics-json is given, else off)
//   --heatmap=PATH     per-cell heat-map export (uplinks, RQI scan work,
//                      installs, residency), deterministic flavor — the
//                      file is byte-identical for any --threads, --shards
//                      or --shard-threads value
//   --steps=N          override every job's measured step count (smoke runs)
//   --objects=N        override every job's object count (smoke runs)
//
// Fault-injection overrides, applied on top of every job's FaultOptions
// (a job keeps its own value for any knob the flags leave unset):
//   --drop-rate=F      message drop probability, both directions
//   --delay-steps=N    max deferred-delivery delay; pairs with --delay-rate
//                      (default 0.2 when --delay-steps is given alone)
//   --delay-rate=F     probability a surviving message is delayed
//   --dup-rate=F       probability a surviving message is duplicated
//   --outage=P:D       base stations dark D of every P steps (staggered)
//   --disconnect=R:P:D objects offline D of every P steps w.p. R
//   --seed=N           fault plan seed (workload seeds are per-job)
//   --harden           run the hardened protocol (acks, leases,
//                      reconciliation; core::HardenedOptions)
//
// Crash-recovery overrides (DESIGN.md §9):
//   --server-crash=S:R kill the server at step S, restore it from the
//                      durable store R steps later (R=0: restore within
//                      the same step, before any traffic)
//   --client-restart-rate=F  per-object per-step cold-restart probability
//   --checkpoint-stride=N    server checkpoint every N steps (0: baseline
//                      checkpoint only)
//
// Server sharding overrides (DESIGN.md §10):
//   --shards=N         grid-partitioned server shards (1 = monolith)
//   --shard-threads=N  worker threads for the per-shard step phase
//   --shard-partition=rowband|hash  grid-to-shard assignment policy
//   --rebalance=off|S:T:M  online rebalancing (DESIGN.md §15): plan every
//                      S steps, act when the hottest shard exceeds T times
//                      the mean load, move at most M cells per rebalance
//                      ("off", the default, is the byte-identical path)
void InitBench(const std::string& name, int argc, char** argv);

// Worker thread count RunSweep will use.
int BenchThreads();

// Runs every job across the worker pool; results indexed like `jobs`.
// Honors the observability flags above: cells run with metrics/tracing
// enabled and their outputs are recorded (tagged with the job label) for
// FinishBench to write.
std::vector<sim::RunMetrics> RunSweep(const std::vector<SweepJob>& jobs);

// Same, with an explicit worker count (1 = strictly serial). The counting
// metrics of each cell depend only on its seed, never on `threads`.
std::vector<sim::RunMetrics> RunSweep(const std::vector<SweepJob>& jobs,
                                      int threads);

// Observability toggles for RunSweepObserved (the flag-independent core
// also used by tests).
struct SweepObsOptions {
  bool metrics = false;
  bool trace = false;
  int sample_stride = 0;
  // Per-cell heat-map accumulation (DESIGN.md §12); the deterministic
  // export lands in SweepCellResult::heatmap_json.
  bool heatmap = false;
  // Lifecycle latency tracking; its tables ride inside metrics_json.
  bool lifecycle = false;
  // Capture each cell's final per-query result sets (sorted, in installed
  // query order) into SweepCellResult::query_results. Used by the
  // determinism tests and the shard sweep to compare runs structurally.
  bool capture_results = false;
};

// One sweep cell's observability output.
struct SweepCellResult {
  sim::RunMetrics metrics;
  // Simulation::ObservabilityJson(include_timing=false): deterministic for
  // a given seed, identical across thread counts. Empty when !obs.metrics
  // and the sampler is off.
  std::string metrics_json;
  // Trace events with pid = job index. Empty when !obs.trace.
  std::vector<obs::TraceEvent> trace_events;
  // HeatMap::ToJson(include_layout_dependent=false): deterministic for a
  // given seed, byte-identical across thread and shard counts. Empty when
  // !obs.heatmap.
  std::string heatmap_json;
  // Final result set of each installed query, sorted by object id, indexed
  // like Simulation::installed_queries(). Empty when !obs.capture_results.
  std::vector<std::vector<ObjectId>> query_results;
};

// RunSweep with explicit observability; results indexed like `jobs`.
std::vector<SweepCellResult> RunSweepObserved(
    const std::vector<SweepJob>& jobs, int threads,
    const SweepObsOptions& obs);

// Applies the harness flag overrides (--steps/--objects, fault-injection,
// crash-recovery and sharding flags) to one job, exactly as RunSweep does
// before dispatch. For benches that build jobs themselves and call
// RunSweepObserved directly but still want the smoke-run flags to work.
SweepJob ApplyFlagOverrides(SweepJob job);

struct Series {
  std::string name;
  std::vector<double> values;
};

// Prints an aligned table: header `title`, x column labeled `xlabel`, one
// column per series. Values are printed with %.6g. The table is also
// recorded for the --json report.
void PrintTable(const std::string& title, const std::string& xlabel,
                const std::vector<double>& xs,
                const std::vector<Series>& series);

// Writes the JSON report if --json was given. Returns 0 (the exit status),
// so benches can end with `return FinishBench();`.
int FinishBench();

// Progress note to stderr so long sweeps show life without polluting the
// table output on stdout.
void Progress(const std::string& note);

}  // namespace mobieyes::bench

#endif  // MOBIEYES_BENCH_BENCH_COMMON_H_

#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <vector>

#include "mobieyes/common/thread_pool.h"
#include "mobieyes/core/rebalance.h"

namespace mobieyes::bench {

namespace {

struct RecordedTable {
  std::string title;
  std::string xlabel;
  std::vector<double> xs;
  std::vector<Series> series;
};

// One sweep cell's recorded observability output, in job order across all
// RunSweep calls of the bench.
struct RecordedCell {
  std::string label;
  std::string metrics_json;
  std::vector<obs::TraceEvent> trace_events;
  std::string heatmap_json;
};

struct BenchState {
  std::string name = "bench";
  int threads = 0;  // resolved in InitBench
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  std::string heatmap_path;
  int sample_stride = 0;
  int steps_override = 0;
  int objects_override = 0;
  // Fault-injection flag overrides; negative means "flag not given" so a
  // job's own FaultOptions survive when the flag is absent.
  double drop_rate = -1.0;
  double delay_rate = -1.0;
  int delay_steps = -1;
  double dup_rate = -1.0;
  int outage_period = -1;
  int outage_duration = -1;
  double disconnect_rate = -1.0;
  int disconnect_period = -1;
  int disconnect_duration = -1;
  uint64_t fault_seed = 0;
  bool fault_seed_set = false;
  bool harden = false;
  // Crash-recovery flag overrides, same negative-means-unset convention.
  long long server_crash_step = -1;
  int server_recovery_steps = -1;
  double client_restart_rate = -1.0;
  int checkpoint_stride = -1;
  // Sharding flag overrides, same negative-means-unset convention.
  int shards = -1;
  int shard_threads = -1;
  std::string rebalance_spec;  // "off" or STRIDE:THRESHOLD:MAX_MOVES
  bool rebalance_set = false;
  std::chrono::steady_clock::time_point start;
  std::vector<RecordedTable> tables;
  std::vector<RecordedCell> cells;
};

BenchState& State() {
  static BenchState state;
  return state;
}

// JSON string escape for the characters our titles/labels can contain.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void AppendDoubles(std::string* out, const std::vector<double>& values) {
  *out += '[';
  for (size_t k = 0; k < values.size(); ++k) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", values[k]);
    if (k > 0) *out += ',';
    *out += buffer;
  }
  *out += ']';
}

}  // namespace

sim::RunMetrics RunMode(const sim::SimulationParams& params, sim::SimMode mode,
                        const RunOptions& options,
                        const core::MobiEyesOptions& mobieyes) {
  sim::SimulationConfig config;
  config.params = params;
  config.mode = mode;
  config.mobieyes = mobieyes;
  config.measure_error = options.measure_error;
  config.track_per_object_bytes = options.track_per_object_bytes;
  config.warmup_steps = options.warmup_steps;
  config.checkpoint_stride = options.checkpoint_stride;
  config.wal_limit = options.wal_limit;
  config.shard_threads = options.shard_threads;
  auto simulation = sim::Simulation::Make(config);
  if (!simulation.ok()) {
    std::fprintf(stderr, "simulation setup failed: %s\n",
                 simulation.status().ToString().c_str());
    return sim::RunMetrics{};
  }
  (*simulation)->Run(options.steps);
  return (*simulation)->metrics();
}

void InitBench(const std::string& name, int argc, char** argv) {
  BenchState& state = State();
  state.name = name;
  state.threads = ThreadPool::HardwareThreads();
  state.start = std::chrono::steady_clock::now();
  for (int k = 1; k < argc; ++k) {
    const char* arg = argv[k];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      int threads = std::atoi(arg + 10);
      if (threads < 1) {
        std::fprintf(stderr, "[bench] ignoring bad --threads value '%s'\n",
                     arg + 10);
      } else {
        state.threads = threads;
      }
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      state.json_path = arg + 7;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      state.trace_path = arg + 8;
    } else if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      state.metrics_path = arg + 15;
    } else if (std::strncmp(arg, "--heatmap=", 10) == 0) {
      state.heatmap_path = arg + 10;
    } else if (std::strncmp(arg, "--sample-stride=", 16) == 0) {
      state.sample_stride = std::atoi(arg + 16);
    } else if (std::strncmp(arg, "--steps=", 8) == 0) {
      state.steps_override = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--objects=", 10) == 0) {
      state.objects_override = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--drop-rate=", 12) == 0) {
      state.drop_rate = std::atof(arg + 12);
    } else if (std::strncmp(arg, "--delay-steps=", 14) == 0) {
      state.delay_steps = std::atoi(arg + 14);
    } else if (std::strncmp(arg, "--delay-rate=", 13) == 0) {
      state.delay_rate = std::atof(arg + 13);
    } else if (std::strncmp(arg, "--dup-rate=", 11) == 0) {
      state.dup_rate = std::atof(arg + 11);
    } else if (std::strncmp(arg, "--outage=", 9) == 0) {
      if (std::sscanf(arg + 9, "%d:%d", &state.outage_period,
                      &state.outage_duration) != 2) {
        std::fprintf(stderr, "[bench] bad --outage value '%s' (want P:D)\n",
                     arg + 9);
        state.outage_period = state.outage_duration = -1;
      }
    } else if (std::strncmp(arg, "--disconnect=", 13) == 0) {
      if (std::sscanf(arg + 13, "%lf:%d:%d", &state.disconnect_rate,
                      &state.disconnect_period,
                      &state.disconnect_duration) != 3) {
        std::fprintf(stderr,
                     "[bench] bad --disconnect value '%s' (want R:P:D)\n",
                     arg + 13);
        state.disconnect_rate = -1.0;
        state.disconnect_period = state.disconnect_duration = -1;
      }
    } else if (std::strncmp(arg, "--server-crash=", 15) == 0) {
      if (std::sscanf(arg + 15, "%lld:%d", &state.server_crash_step,
                      &state.server_recovery_steps) != 2 ||
          state.server_crash_step < 0 || state.server_recovery_steps < 0) {
        std::fprintf(stderr,
                     "[bench] bad --server-crash value '%s' (want S:R)\n",
                     arg + 15);
        state.server_crash_step = -1;
        state.server_recovery_steps = -1;
      }
    } else if (std::strncmp(arg, "--client-restart-rate=", 22) == 0) {
      state.client_restart_rate = std::atof(arg + 22);
    } else if (std::strncmp(arg, "--checkpoint-stride=", 20) == 0) {
      state.checkpoint_stride = std::atoi(arg + 20);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      state.shards = std::atoi(arg + 9);
      if (state.shards < 1) {
        std::fprintf(stderr, "[bench] ignoring bad --shards value '%s'\n",
                     arg + 9);
        state.shards = -1;
      }
    } else if (std::strncmp(arg, "--shard-threads=", 16) == 0) {
      state.shard_threads = std::atoi(arg + 16);
      if (state.shard_threads < 1) {
        std::fprintf(stderr,
                     "[bench] ignoring bad --shard-threads value '%s'\n",
                     arg + 16);
        state.shard_threads = -1;
      }
    } else if (std::strncmp(arg, "--rebalance=", 12) == 0) {
      core::ShardingOptions probe;
      Status st = core::ParseRebalanceSpec(arg + 12, &probe);
      if (st.ok()) {
        state.rebalance_spec = arg + 12;
        state.rebalance_set = true;
      } else {
        std::fprintf(stderr, "[bench] bad --rebalance value '%s': %s\n",
                     arg + 12, st.ToString().c_str());
      }
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      state.fault_seed = std::strtoull(arg + 7, nullptr, 10);
      state.fault_seed_set = true;
    } else if (std::strcmp(arg, "--harden") == 0) {
      state.harden = true;
    }
  }
  if (state.sample_stride == 0 && !state.metrics_path.empty()) {
    state.sample_stride = 1;  // a metrics report should include a series
  }
  // A bare --delay-steps should actually delay something.
  if (state.delay_steps > 0 && state.delay_rate < 0.0) {
    state.delay_rate = 0.2;
  }
}

int BenchThreads() { return State().threads; }

namespace {

// Builds, runs and observes one sweep cell. `pid` tags the cell's trace
// events so a merged sweep trace shows one process track per cell.
SweepCellResult RunCell(const SweepJob& job, const SweepObsOptions& obs,
                        int32_t pid) {
  sim::SimulationConfig config;
  config.params = job.params;
  config.mode = job.mode;
  config.mobieyes = job.mobieyes;
  config.measure_error = job.options.measure_error;
  config.track_per_object_bytes = job.options.track_per_object_bytes;
  config.warmup_steps = job.options.warmup_steps;
  config.checkpoint_stride = job.options.checkpoint_stride;
  config.wal_limit = job.options.wal_limit;
  config.shard_threads = job.options.shard_threads;
  config.faults = job.faults.plan;
  if (job.faults.harden) {
    config.mobieyes =
        core::HardenedOptions(config.mobieyes, job.params.time_step);
  }
  config.obs.enable_metrics = obs.metrics;
  config.obs.enable_trace = obs.trace;
  config.obs.sample_stride = obs.sample_stride;
  config.obs.enable_heatmap = obs.heatmap;
  config.obs.enable_lifecycle = obs.lifecycle;
  SweepCellResult result;
  auto simulation = sim::Simulation::Make(config);
  if (!simulation.ok()) {
    std::fprintf(stderr, "simulation setup failed: %s\n",
                 simulation.status().ToString().c_str());
    return result;
  }
  (*simulation)->Run(job.options.steps);
  // Close a partially filled heat-map window (no-op when steps landed on a
  // window boundary) so short cells still export residency + folded totals.
  (*simulation)->FlushHeatmap();
  result.metrics = (*simulation)->metrics();
  if (obs.metrics || obs.sample_stride > 0) {
    // Timing-free so the report depends only on the cell's seed, keeping
    // the parallel sweep deterministic; wall-clock detail belongs to the
    // trace.
    result.metrics_json =
        (*simulation)->ObservabilityJson(/*include_timing=*/false);
  }
  if (obs.trace) {
    obs::TraceRecorder* trace = (*simulation)->trace_recorder();
    trace->SetPid(pid);
    result.trace_events = trace->TakeEvents();
  }
  if (obs.heatmap && (*simulation)->heatmap() != nullptr) {
    // Deterministic flavor: layout-dependent channels excluded, so the
    // export is byte-identical across thread and shard counts.
    result.heatmap_json = (*simulation)->heatmap()->ToJson(
        /*include_layout_dependent=*/false);
  }
  if (obs.capture_results) {
    const std::vector<QueryId>& qids = (*simulation)->installed_queries();
    result.query_results.reserve(qids.size());
    core::MobiEyesServer* server = (*simulation)->server();
    for (QueryId qid : qids) {
      std::vector<ObjectId> sorted;
      const core::MobiEyesServer::SqtEntry* entry =
          server == nullptr ? nullptr : server->FindQuery(qid);
      if (entry != nullptr) {
        sorted.assign(entry->result.begin(), entry->result.end());
        std::sort(sorted.begin(), sorted.end());
      }
      result.query_results.push_back(std::move(sorted));
    }
  }
  return result;
}

// Steps/objects smoke-run overrides and fault-injection overrides from the
// harness flags.
SweepJob ApplyOverrides(SweepJob job) {
  const BenchState& state = State();
  if (state.steps_override > 0) job.options.steps = state.steps_override;
  if (state.objects_override > 0) {
    job.params.num_objects = state.objects_override;
  }
  net::FaultPlan& plan = job.faults.plan;
  if (state.drop_rate >= 0.0) {
    plan.uplink_drop_rate = state.drop_rate;
    plan.downlink_drop_rate = state.drop_rate;
  }
  if (state.delay_steps >= 0) plan.max_delay_steps = state.delay_steps;
  if (state.delay_rate >= 0.0) plan.delay_rate = state.delay_rate;
  if (state.dup_rate >= 0.0) plan.duplicate_rate = state.dup_rate;
  if (state.outage_period >= 0) {
    plan.outage_period_steps = state.outage_period;
    plan.outage_duration_steps = state.outage_duration;
  }
  if (state.disconnect_rate >= 0.0) {
    plan.disconnect_rate = state.disconnect_rate;
    plan.disconnect_period_steps = state.disconnect_period;
    plan.disconnect_duration_steps = state.disconnect_duration;
  }
  if (state.fault_seed_set) plan.seed = state.fault_seed;
  if (state.harden) job.faults.harden = true;
  if (state.server_crash_step >= 0) {
    plan.server_crash_step = state.server_crash_step;
    plan.server_recovery_steps = state.server_recovery_steps;
  }
  if (state.client_restart_rate >= 0.0) {
    plan.client_restart_rate = state.client_restart_rate;
  }
  if (state.checkpoint_stride >= 0) {
    job.options.checkpoint_stride = state.checkpoint_stride;
  }
  if (state.shards > 0) job.mobieyes.sharding.num_shards = state.shards;
  if (state.shard_threads > 0) {
    job.options.shard_threads = state.shard_threads;
  }
  if (state.rebalance_set) {
    // Validated at parse time; re-applied per job so every cell of the
    // sweep (whatever its own sharding options) gets the override.
    core::ParseRebalanceSpec(state.rebalance_spec, &job.mobieyes.sharding);
  }
  return job;
}

}  // namespace

SweepJob ApplyFlagOverrides(SweepJob job) {
  return ApplyOverrides(std::move(job));
}

std::vector<SweepCellResult> RunSweepObserved(
    const std::vector<SweepJob>& jobs, int threads,
    const SweepObsOptions& obs) {
  ThreadPool pool(threads);
  // One Submit per job (not ParallelFor): cells vary widely in cost, so the
  // shared queue load-balances; futures are joined by index, which pins the
  // result order regardless of completion order.
  std::vector<std::future<SweepCellResult>> pending;
  pending.reserve(jobs.size());
  for (size_t k = 0; k < jobs.size(); ++k) {
    const SweepJob& job = jobs[k];
    pending.push_back(pool.Submit([&job, &obs, k] {
      if (!job.label.empty()) Progress(job.label);
      return RunCell(job, obs, static_cast<int32_t>(k));
    }));
  }
  std::vector<SweepCellResult> results;
  results.reserve(jobs.size());
  for (auto& future : pending) results.push_back(future.get());
  return results;
}

std::vector<sim::RunMetrics> RunSweep(const std::vector<SweepJob>& jobs) {
  return RunSweep(jobs, BenchThreads());
}

std::vector<sim::RunMetrics> RunSweep(const std::vector<SweepJob>& jobs,
                                      int threads) {
  BenchState& state = State();
  SweepObsOptions obs;
  obs.metrics = !state.metrics_path.empty();
  obs.trace = !state.trace_path.empty();
  obs.sample_stride = obs.metrics ? state.sample_stride : 0;
  obs.heatmap = !state.heatmap_path.empty();
  // Lifecycle latency tables ride inside the metrics report.
  obs.lifecycle = obs.metrics;

  std::vector<SweepJob> effective;
  effective.reserve(jobs.size());
  for (const SweepJob& job : jobs) effective.push_back(ApplyOverrides(job));

  std::vector<SweepCellResult> cells =
      RunSweepObserved(effective, threads, obs);
  std::vector<sim::RunMetrics> results;
  results.reserve(cells.size());
  const bool record = obs.metrics || obs.trace || obs.heatmap;
  // Pids must be unique across RunSweep calls for the merged trace; shift
  // this batch past the cells already recorded.
  int32_t pid_base = static_cast<int32_t>(state.cells.size());
  for (size_t k = 0; k < cells.size(); ++k) {
    results.push_back(cells[k].metrics);
    if (record) {
      for (obs::TraceEvent& event : cells[k].trace_events) {
        event.pid += pid_base;
      }
      state.cells.push_back(RecordedCell{effective[k].label,
                                         std::move(cells[k].metrics_json),
                                         std::move(cells[k].trace_events),
                                         std::move(cells[k].heatmap_json)});
    }
  }
  return results;
}

void PrintTable(const std::string& title, const std::string& xlabel,
                const std::vector<double>& xs,
                const std::vector<Series>& series) {
  State().tables.push_back(RecordedTable{title, xlabel, xs, series});
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-14s", xlabel.c_str());
  for (const Series& s : series) {
    std::printf("  %-18s", s.name.c_str());
  }
  std::printf("\n");
  for (size_t row = 0; row < xs.size(); ++row) {
    std::printf("%-14.6g", xs[row]);
    for (const Series& s : series) {
      if (row < s.values.size()) {
        std::printf("  %-18.6g", s.values[row]);
      } else {
        std::printf("  %-18s", "-");
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

namespace {

// Writes the merged Chrome trace: one process track per sweep cell, named
// by the cell's job label.
bool WriteTraceFile(const BenchState& state) {
  std::vector<obs::TraceEvent> events;
  std::vector<std::string> process_names;
  process_names.reserve(state.cells.size());
  for (const RecordedCell& cell : state.cells) {
    process_names.push_back(cell.label.empty()
                                ? "cell " + std::to_string(
                                                process_names.size())
                                : cell.label);
    events.insert(events.end(), cell.trace_events.begin(),
                  cell.trace_events.end());
  }
  return obs::TraceRecorder::WriteFile(state.trace_path, events,
                                       process_names);
}

// Writes the per-cell metrics report. Cells are ordered by job index and
// each cell's JSON is timing-free, so the file is byte-identical for any
// --threads value.
bool WriteMetricsFile(const BenchState& state) {
  std::string json = "{\"bench\": \"" + JsonEscape(state.name) +
                     "\",\n\"cells\": [\n";
  for (size_t k = 0; k < state.cells.size(); ++k) {
    const RecordedCell& cell = state.cells[k];
    json += "{\"label\": \"" + JsonEscape(cell.label) + "\", \"report\": ";
    json += cell.metrics_json.empty() ? "{}" : cell.metrics_json;
    json += k + 1 < state.cells.size() ? "},\n" : "}\n";
  }
  json += "]}\n";
  std::FILE* file = std::fopen(state.metrics_path.c_str(), "w");
  if (file == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  return std::fclose(file) == 0 && written == json.size();
}

// Writes the per-cell heat-map export. Same ordering/determinism contract
// as the metrics file: byte-identical for any --threads, --shards or
// --shard-threads value.
bool WriteHeatmapFile(const BenchState& state) {
  std::string json = "{\"bench\": \"" + JsonEscape(state.name) +
                     "\",\n\"cells\": [\n";
  for (size_t k = 0; k < state.cells.size(); ++k) {
    const RecordedCell& cell = state.cells[k];
    json += "{\"label\": \"" + JsonEscape(cell.label) + "\", \"heatmap\": ";
    json += cell.heatmap_json.empty() ? "{}" : cell.heatmap_json;
    json += k + 1 < state.cells.size() ? "},\n" : "}\n";
  }
  json += "]}\n";
  std::FILE* file = std::fopen(state.heatmap_path.c_str(), "w");
  if (file == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  return std::fclose(file) == 0 && written == json.size();
}

}  // namespace

int FinishBench() {
  BenchState& state = State();
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    state.start)
          .count();
  if (!state.trace_path.empty()) {
    if (WriteTraceFile(state)) {
      Progress("wrote " + state.trace_path);
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   state.trace_path.c_str());
      return 1;
    }
  }
  if (!state.metrics_path.empty()) {
    if (WriteMetricsFile(state)) {
      Progress("wrote " + state.metrics_path);
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   state.metrics_path.c_str());
      return 1;
    }
  }
  if (!state.heatmap_path.empty()) {
    if (WriteHeatmapFile(state)) {
      Progress("wrote " + state.heatmap_path);
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   state.heatmap_path.c_str());
      return 1;
    }
  }
  if (state.json_path.empty()) return 0;

  std::string json = "{\n";
  json += "  \"bench\": \"" + JsonEscape(state.name) + "\",\n";
  json += "  \"threads\": " + std::to_string(state.threads) + ",\n";
  json += "  \"hardware_threads\": " +
          std::to_string(ThreadPool::HardwareThreads()) + ",\n";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", wall_seconds);
  json += "  \"wall_seconds\": " + std::string(buffer) + ",\n";
  json += "  \"tables\": [\n";
  for (size_t t = 0; t < state.tables.size(); ++t) {
    const RecordedTable& table = state.tables[t];
    json += "    {\n";
    json += "      \"title\": \"" + JsonEscape(table.title) + "\",\n";
    json += "      \"xlabel\": \"" + JsonEscape(table.xlabel) + "\",\n";
    json += "      \"x\": ";
    AppendDoubles(&json, table.xs);
    json += ",\n      \"series\": [\n";
    for (size_t s = 0; s < table.series.size(); ++s) {
      json += "        {\"name\": \"" + JsonEscape(table.series[s].name) +
              "\", \"values\": ";
      AppendDoubles(&json, table.series[s].values);
      json += s + 1 < table.series.size() ? "},\n" : "}\n";
    }
    json += "      ]\n";
    json += t + 1 < state.tables.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n}\n";

  std::FILE* file = std::fopen(state.json_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n",
                 state.json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  Progress("wrote " + state.json_path);
  return 0;
}

void Progress(const std::string& note) {
  std::fprintf(stderr, "[bench] %s\n", note.c_str());
  std::fflush(stderr);
}

}  // namespace mobieyes::bench

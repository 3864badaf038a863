// mobieyes_sim: command-line driver for the MobiEyes simulator. Runs one
// query-processing scheme over a Table 1-style workload and prints the full
// metrics report (server load, messaging cost, LQT sizes, result error,
// per-object power), plus the analytic alpha-model prediction.
//
// Usage:
//   mobieyes_sim [--mode=eqp|lqp|object-index|query-index|naive|
//                        central-optimal]
//                [--objects=N] [--queries=N] [--nmo=N] [--alpha=F]
//                [--area=F] [--alen=F] [--steps=N] [--warmup=N] [--seed=N]
//                [--delta=F] [--radius-factor=F] [--selectivity=F]
//                [--safe-period] [--no-grouping] [--no-error] [--no-bytes]
//                [--hotspots] [--histogram] [--trace=PATH]
//                [--metrics-json=PATH] [--sample-stride=N]
//                [--heatmap=PATH] [--report=PATH]
//                [--drop-rate=F] [--delay-steps=N] [--delay-rate=F]
//                [--dup-rate=F] [--outage=P:D] [--disconnect=R:P:D]
//                [--fault-seed=N] [--harden]
//                [--server-crash=S:R] [--client-restart-rate=F]
//                [--checkpoint-stride=N]
//                [--shards=N] [--shard-threads=N]
//                [--shard-partition=rowband|hash]
//                [--rebalance=off|STRIDE:THRESHOLD:MAX_MOVES]
//
// The fault flags configure the net::FaultyNetwork (see
// src/mobieyes/net/fault_injection.h); --harden switches the MobiEyes
// protocol to the hardened variant (uplink acks + retries, soft-state
// leases, periodic reconciliation). The crash-recovery flags kill the
// server at step S and restore it from its checkpoint+WAL R steps later,
// cold-restart clients at the given per-step rate, and set the server
// checkpoint stride (DESIGN.md §9). The sharding flags split the server
// into grid-partitioned shards behind a routing coordinator (DESIGN.md
// §10); results and wireless traffic are identical for any shard count.
//
// --heatmap=PATH writes the per-cell heat maps (uplinks, RQI scan work,
// installs, residency) as deterministic JSON — byte-identical across
// shard/thread counts for the same seed. --report=PATH turns on every
// observability component and writes a single self-contained HTML report
// (sparklines, heat-map grids, latency tables; DESIGN.md §12).
//
// Unknown flags are an error (exit 2), so typos never silently run the
// default configuration.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "mobieyes/core/rebalance.h"
#include "mobieyes/net/energy.h"
#include "mobieyes/obs/report_html.h"
#include "mobieyes/obs/trace_recorder.h"
#include "mobieyes/sim/alpha_model.h"
#include "mobieyes/sim/simulation.h"

using namespace mobieyes;  // NOLINT(build/namespaces)

namespace {

struct CliOptions {
  sim::SimulationConfig config;
  int steps = 20;
  bool show_alpha_model = true;
  bool show_histogram = false;
  bool harden = false;
  double delay_rate = -1.0;  // <0: default to 0.2 when --delay-steps is set
  std::string trace_path;
  std::string metrics_path;
  std::string heatmap_path;
  std::string report_path;
};

// Writes `data` to `path`; prints an error and returns false on failure.
bool WriteFileOrComplain(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(data.data(), 1, data.size(), f) != data.size()) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    if (f != nullptr) std::fclose(f);
    return false;
  }
  std::fclose(f);
  return true;
}

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--mode=eqp|lqp|object-index|query-index|naive|"
               "central-optimal]\n"
               "          [--objects=N] [--queries=N] [--nmo=N] [--alpha=F]\n"
               "          [--area=F] [--alen=F] [--steps=N] [--warmup=N]\n"
               "          [--seed=N] [--delta=F] [--radius-factor=F]\n"
               "          [--selectivity=F] [--safe-period] [--no-grouping]\n"
               "          [--no-error] [--no-bytes] [--hotspots]\n"
               "          [--histogram]\n"
               "          [--trace=PATH] [--metrics-json=PATH]\n"
               "          [--sample-stride=N]\n"
               "          [--heatmap=PATH] [--report=PATH]\n"
               "          [--drop-rate=F] [--delay-steps=N] [--delay-rate=F]\n"
               "          [--dup-rate=F] [--outage=P:D] [--disconnect=R:P:D]\n"
               "          [--fault-seed=N] [--harden]\n"
               "          [--server-crash=S:R] [--client-restart-rate=F]\n"
               "          [--checkpoint-stride=N]\n"
               "          [--shards=N] [--shard-threads=N]\n"
               "          [--shard-partition=rowband|hash]\n"
               "          [--rebalance=off|STRIDE:THRESHOLD:MAX_MOVES]\n",
               argv0);
}

// Parses "--key=value" into key/value; returns false for non-options.
bool SplitFlag(const char* arg, std::string* key, std::string* value) {
  if (std::strncmp(arg, "--", 2) != 0) return false;
  const char* eq = std::strchr(arg, '=');
  if (eq == nullptr) {
    *key = arg + 2;
    value->clear();
  } else {
    key->assign(arg + 2, eq);
    value->assign(eq + 1);
  }
  return true;
}

bool ParseMode(const std::string& value, sim::SimMode* mode) {
  if (value == "eqp") *mode = sim::SimMode::kMobiEyesEager;
  else if (value == "lqp") *mode = sim::SimMode::kMobiEyesLazy;
  else if (value == "object-index") *mode = sim::SimMode::kObjectIndex;
  else if (value == "query-index") *mode = sim::SimMode::kQueryIndex;
  else if (value == "naive") *mode = sim::SimMode::kNaive;
  else if (value == "central-optimal") *mode = sim::SimMode::kCentralOptimal;
  else return false;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* cli) {
  cli->config.measure_error = true;
  cli->config.track_per_object_bytes = true;
  for (int k = 1; k < argc; ++k) {
    std::string key;
    std::string value;
    if (!SplitFlag(argv[k], &key, &value)) {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[k]);
      return false;
    }
    auto& params = cli->config.params;
    if (key == "mode") {
      if (!ParseMode(value, &cli->config.mode)) return false;
    } else if (key == "objects") {
      params.num_objects = std::atoi(value.c_str());
    } else if (key == "queries") {
      params.num_queries = std::atoi(value.c_str());
    } else if (key == "nmo") {
      params.velocity_changes_per_step = std::atoi(value.c_str());
    } else if (key == "alpha") {
      params.alpha = std::atof(value.c_str());
    } else if (key == "area") {
      params.area_square_miles = std::atof(value.c_str());
    } else if (key == "alen") {
      params.base_station_side = std::atof(value.c_str());
    } else if (key == "steps") {
      cli->steps = std::atoi(value.c_str());
    } else if (key == "warmup") {
      cli->config.warmup_steps = std::atoi(value.c_str());
    } else if (key == "seed") {
      params.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "delta") {
      params.dead_reckoning_threshold = std::atof(value.c_str());
    } else if (key == "radius-factor") {
      params.radius_factor = std::atof(value.c_str());
    } else if (key == "selectivity") {
      params.query_selectivity = std::atof(value.c_str());
    } else if (key == "safe-period") {
      cli->config.mobieyes.enable_safe_period = true;
    } else if (key == "no-grouping") {
      cli->config.mobieyes.enable_query_grouping = false;
    } else if (key == "no-error") {
      cli->config.measure_error = false;
    } else if (key == "no-bytes") {
      cli->config.track_per_object_bytes = false;
    } else if (key == "hotspots") {
      params.object_distribution = sim::ObjectDistribution::kHotspot;
    } else if (key == "histogram") {
      cli->show_histogram = true;
    } else if (key == "trace") {
      cli->trace_path = value;
      cli->config.obs.enable_trace = true;
    } else if (key == "metrics-json") {
      cli->metrics_path = value;
      cli->config.obs.enable_metrics = true;
      // Lifecycle latency tables ride inside the metrics report, matching
      // the bench harness's --metrics-json behavior.
      cli->config.obs.enable_lifecycle = true;
      if (cli->config.obs.sample_stride == 0) cli->config.obs.sample_stride = 1;
    } else if (key == "sample-stride") {
      cli->config.obs.sample_stride = std::atoi(value.c_str());
    } else if (key == "heatmap") {
      cli->heatmap_path = value;
      cli->config.obs.enable_heatmap = true;
    } else if (key == "report") {
      // One flag turns on everything the HTML report can render.
      cli->report_path = value;
      cli->config.obs.enable_metrics = true;
      cli->config.obs.enable_heatmap = true;
      cli->config.obs.enable_lifecycle = true;
      if (cli->config.obs.sample_stride == 0) cli->config.obs.sample_stride = 1;
    } else if (key == "drop-rate") {
      cli->config.faults.uplink_drop_rate = std::atof(value.c_str());
      cli->config.faults.downlink_drop_rate =
          cli->config.faults.uplink_drop_rate;
    } else if (key == "delay-steps") {
      cli->config.faults.max_delay_steps = std::atoi(value.c_str());
    } else if (key == "delay-rate") {
      cli->delay_rate = std::atof(value.c_str());
    } else if (key == "dup-rate") {
      cli->config.faults.duplicate_rate = std::atof(value.c_str());
    } else if (key == "outage") {
      if (std::sscanf(value.c_str(), "%d:%d",
                      &cli->config.faults.outage_period_steps,
                      &cli->config.faults.outage_duration_steps) != 2) {
        std::fprintf(stderr, "bad --outage value '%s' (want PERIOD:DURATION)\n",
                     value.c_str());
        return false;
      }
    } else if (key == "disconnect") {
      if (std::sscanf(value.c_str(), "%lf:%d:%d",
                      &cli->config.faults.disconnect_rate,
                      &cli->config.faults.disconnect_period_steps,
                      &cli->config.faults.disconnect_duration_steps) != 3) {
        std::fprintf(
            stderr, "bad --disconnect value '%s' (want RATE:PERIOD:DURATION)\n",
            value.c_str());
        return false;
      }
    } else if (key == "fault-seed") {
      cli->config.faults.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "server-crash") {
      long long crash_step = -1;
      int recovery_steps = -1;
      if (std::sscanf(value.c_str(), "%lld:%d", &crash_step,
                      &recovery_steps) != 2 ||
          crash_step < 0 || recovery_steps < 0) {
        std::fprintf(stderr,
                     "bad --server-crash value '%s' (want STEP:RECOVERY)\n",
                     value.c_str());
        return false;
      }
      cli->config.faults.server_crash_step = crash_step;
      cli->config.faults.server_recovery_steps = recovery_steps;
    } else if (key == "client-restart-rate") {
      cli->config.faults.client_restart_rate = std::atof(value.c_str());
    } else if (key == "checkpoint-stride") {
      cli->config.checkpoint_stride = std::atoi(value.c_str());
    } else if (key == "shards") {
      cli->config.mobieyes.sharding.num_shards = std::atoi(value.c_str());
      if (cli->config.mobieyes.sharding.num_shards < 1) {
        std::fprintf(stderr, "bad --shards value '%s'\n", value.c_str());
        return false;
      }
    } else if (key == "shard-threads") {
      cli->config.shard_threads = std::atoi(value.c_str());
      if (cli->config.shard_threads < 1) {
        std::fprintf(stderr, "bad --shard-threads value '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (key == "shard-partition") {
      if (value == "rowband") {
        cli->config.mobieyes.sharding.partition =
            core::ShardPartition::kRowBand;
      } else if (value == "hash") {
        cli->config.mobieyes.sharding.partition = core::ShardPartition::kHash;
      } else {
        std::fprintf(stderr,
                     "bad --shard-partition value '%s' (want rowband|hash)\n",
                     value.c_str());
        return false;
      }
    } else if (key == "rebalance") {
      Status st = core::ParseRebalanceSpec(
          value, &cli->config.mobieyes.sharding);
      if (!st.ok()) {
        std::fprintf(stderr, "bad --rebalance value '%s': %s\n", value.c_str(),
                     st.ToString().c_str());
        return false;
      }
    } else if (key == "harden") {
      cli->harden = true;
    } else if (key == "help") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    PrintUsage(argv[0]);
    return 2;
  }
  if (cli.config.faults.max_delay_steps > 0 && cli.delay_rate < 0.0) {
    cli.delay_rate = 0.2;  // a bare --delay-steps should delay something
  }
  if (cli.delay_rate >= 0.0) cli.config.faults.delay_rate = cli.delay_rate;
  if (cli.harden) {
    cli.config.mobieyes = core::HardenedOptions(cli.config.mobieyes,
                                                cli.config.params.time_step);
  }

  auto simulation = sim::Simulation::Make(cli.config);
  if (!simulation.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 simulation.status().ToString().c_str());
    return 1;
  }
  net::MessageHistogram histogram;
  if (cli.show_histogram) {
    (*simulation)->network().set_observer(
        [&histogram](net::Direction, int64_t, const net::Message& message) {
          histogram.Record(message);
        });
  }
  std::printf("mode=%s objects=%d queries=%d nmo=%d alpha=%.3g alen=%.3g "
              "area=%.4g seed=%llu\n",
              sim::SimModeName(cli.config.mode), cli.config.params.num_objects,
              cli.config.params.num_queries,
              cli.config.params.velocity_changes_per_step,
              cli.config.params.alpha, cli.config.params.base_station_side,
              cli.config.params.area_square_miles,
              static_cast<unsigned long long>(cli.config.params.seed));

  (*simulation)->Run(cli.steps);
  sim::RunMetrics metrics = (*simulation)->metrics();

  std::printf("\n-- run -------------------------------------------------\n");
  std::printf("steps                      %lld (%.0f simulated seconds)\n",
              static_cast<long long>(metrics.steps),
              metrics.simulated_seconds);
  std::printf("server load                %.6g s/step\n",
              metrics.ServerLoadPerStep());
  std::printf("\n-- wireless medium -------------------------------------\n");
  std::printf("messages/second            %.4g\n", metrics.MessagesPerSecond());
  std::printf("uplink messages/second     %.4g\n",
              metrics.UplinkMessagesPerSecond());
  std::printf("uplink messages            %llu (%llu bytes)\n",
              static_cast<unsigned long long>(metrics.network.uplink_messages),
              static_cast<unsigned long long>(metrics.network.uplink_bytes));
  std::printf("downlink messages          %llu (%llu bytes, %llu broadcast)\n",
              static_cast<unsigned long long>(
                  metrics.network.downlink_messages),
              static_cast<unsigned long long>(metrics.network.downlink_bytes),
              static_cast<unsigned long long>(
                  metrics.network.broadcast_messages));
  std::printf("broadcast receptions       %llu\n",
              static_cast<unsigned long long>(
                  metrics.network.broadcast_receptions));
  if (cli.config.track_per_object_bytes) {
    net::RadioEnergyModel radio;
    std::printf("per-object comm power      %.4g mW\n",
                metrics.AveragePowerMilliwatts(radio));
  }
  if (cli.config.mode == sim::SimMode::kMobiEyesEager ||
      cli.config.mode == sim::SimMode::kMobiEyesLazy) {
    std::printf("\n-- moving objects --------------------------------------\n");
    std::printf("average LQT size           %.4g queries/object\n",
                metrics.AverageLqtSize());
    std::printf("query evaluations          %llu (+%llu safe-period skips)\n",
                static_cast<unsigned long long>(metrics.queries_evaluated),
                static_cast<unsigned long long>(metrics.safe_period_skips));
    std::printf("client processing          %.6g s/step/object\n",
                metrics.ClientProcessingPerStep());
  }
  if (cli.config.measure_error) {
    std::printf("\n-- accuracy --------------------------------------------\n");
    std::printf("avg result error           %.4g (missing fraction)\n",
                metrics.AverageError());
    std::printf("avg spurious fraction      %.4g\n", metrics.AverageSpurious());
    std::printf("avg oracle agreement       %.4g (Jaccard)\n",
                metrics.AverageAgreement());
  }
  if (cli.config.faults.active()) {
    std::printf("\n-- injected faults (measured window) -------------------\n");
    std::printf("dropped                    %llu (%llu up, %llu down, "
                "%llu broadcast)\n",
                static_cast<unsigned long long>(
                    metrics.network.total_dropped()),
                static_cast<unsigned long long>(metrics.network.uplink_dropped),
                static_cast<unsigned long long>(
                    metrics.network.downlink_dropped),
                static_cast<unsigned long long>(
                    metrics.network.broadcast_dropped));
    std::printf("delayed                    %llu\n",
                static_cast<unsigned long long>(
                    metrics.network.delayed_messages));
    std::printf("duplicated                 %llu\n",
                static_cast<unsigned long long>(
                    metrics.network.duplicated_messages));
    std::printf("disconnect events          %llu\n",
                static_cast<unsigned long long>(
                    metrics.network.disconnect_events));
    std::printf("undeliverable downlinks    %llu\n",
                static_cast<unsigned long long>(
                    metrics.network.undeliverable_downlinks));
    std::printf("undeliverable (dead end)   %llu receiver-down, "
                "%llu server-down\n",
                static_cast<unsigned long long>(
                    metrics.network.undeliverable_by_reason[static_cast<
                        size_t>(net::NetworkStats::UndeliverableReason::
                                    kReceiverDisconnected)]),
                static_cast<unsigned long long>(
                    metrics.network.undeliverable_by_reason[static_cast<
                        size_t>(net::NetworkStats::UndeliverableReason::
                                    kServerDown)]));
  }
  {
    core::MobiEyesServer* server = (*simulation)->server();
    if (server != nullptr && server->num_shards() > 1) {
      const core::ShardRouter& router = server->router();
      std::printf(
          "\n-- server shards ---------------------------------------\n");
      std::printf("shards                     %d (%s partition)\n",
                  router.num_shards(),
                  router.shard_map().partition() ==
                          core::ShardPartition::kRowBand
                      ? "rowband"
                      : "hash");
      std::printf("step phase                 %.6g s total (%.6g s/step)\n",
                  metrics.server_step_seconds,
                  metrics.steps > 0 ? metrics.server_step_seconds /
                                          static_cast<double>(metrics.steps)
                                    : 0.0);
      std::printf("backplane messages         %llu (%llu bytes, "
                  "%llu handoffs)\n",
                  static_cast<unsigned long long>(
                      metrics.network.inter_shard_messages),
                  static_cast<unsigned long long>(
                      metrics.network.inter_shard_bytes),
                  static_cast<unsigned long long>(
                      metrics.network.inter_shard_handoffs));
      for (int s = 0; s < router.num_shards(); ++s) {
        const core::ServerShard& shard = router.shard(s);
        std::printf("shard %-2d                   %zu queries, %zu focals, "
                    "%llu uplinks, %llu in / %llu out handoffs\n",
                    s, shard.sqt().size(), shard.fot().size(),
                    static_cast<unsigned long long>(
                        shard.stats().uplinks_routed),
                    static_cast<unsigned long long>(shard.stats().handoffs_in),
                    static_cast<unsigned long long>(
                        shard.stats().handoffs_out));
      }
      if (cli.config.mobieyes.sharding.rebalance_enabled()) {
        std::printf(
            "\n-- online rebalancing ----------------------------------\n");
        std::printf("partition epoch            %llu\n",
                    static_cast<unsigned long long>(metrics.rebalance_epoch));
        std::printf("rebalance events           %llu (%llu cells moved)\n",
                    static_cast<unsigned long long>(metrics.rebalance_events),
                    static_cast<unsigned long long>(
                        metrics.rebalance_cells_moved));
        std::printf("migration volume           %llu focal handoffs, "
                    "%llu RQI row ids\n",
                    static_cast<unsigned long long>(
                        metrics.rebalance_focals_moved),
                    static_cast<unsigned long long>(
                        metrics.rebalance_rqi_ids_moved));
      }
    }
  }
  if (metrics.server_crashes > 0 || metrics.client_restarts > 0 ||
      metrics.checkpoints_taken > 0) {
    std::printf("\n-- crash recovery --------------------------------------\n");
    std::printf("server crashes             %lld\n",
                static_cast<long long>(metrics.server_crashes));
    std::printf("client restarts            %lld\n",
                static_cast<long long>(metrics.client_restarts));
    std::printf("checkpoints taken          %lld\n",
                static_cast<long long>(metrics.checkpoints_taken));
    std::printf("WAL records replayed       %llu (%llu lost to overflow)\n",
                static_cast<unsigned long long>(metrics.wal_records_replayed),
                static_cast<unsigned long long>(metrics.wal_records_dropped));
  }
  std::printf("\n-- message breakdown (measured window) -----------------\n");
  for (size_t t = 0; t < net::kNumMessageTypes; ++t) {
    uint64_t count = metrics.network.messages_by_type[t];
    uint64_t dropped = metrics.network.dropped_by_type[t];
    if (count == 0 && dropped == 0) continue;
    std::printf("%-26s %8llu msgs  %6.2f%%  %8llu dropped\n",
                net::MessageTypeName(static_cast<net::MessageType>(t)),
                static_cast<unsigned long long>(count),
                100.0 * static_cast<double>(count) /
                    static_cast<double>(metrics.network.total_messages()),
                static_cast<unsigned long long>(dropped));
  }
  if (cli.show_histogram) {
    std::printf("\n-- message mix (measured window) -----------------------\n");
    for (const auto& [type, row] : histogram.rows) {
      std::printf("%-26s %8llu msgs  %10llu bytes\n",
                  net::MessageTypeName(type),
                  static_cast<unsigned long long>(row.messages),
                  static_cast<unsigned long long>(row.bytes));
    }
  }
  if (cli.show_alpha_model &&
      (cli.config.mode == sim::SimMode::kMobiEyesEager ||
       cli.config.mode == sim::SimMode::kMobiEyesLazy)) {
    sim::AlphaCostModel model(cli.config.params);
    std::printf("\n-- analytic alpha model --------------------------------\n");
    std::printf("predicted msgs/second      %.4g at alpha=%.3g\n",
                model.MessagesPerSecond(cli.config.params.alpha),
                cli.config.params.alpha);
    double best = model.OptimalAlpha();
    std::printf("model-optimal alpha        %.3g (predicted %.4g msgs/s)\n",
                best, model.MessagesPerSecond(best));
  }
  if (!cli.trace_path.empty()) {
    const obs::TraceRecorder* trace = (*simulation)->trace_recorder();
    if (trace == nullptr ||
        !obs::TraceRecorder::WriteFile(cli.trace_path, trace->events())) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   cli.trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 trace->events().size(), cli.trace_path.c_str());
  }
  // Close any partially filled heat-map window before exporting: short runs
  // (steps not a multiple of heatmap_window) still get a residency snapshot
  // and folded totals.
  (*simulation)->FlushHeatmap();
  if (!cli.metrics_path.empty()) {
    std::string json = (*simulation)->ObservabilityJson();
    if (!WriteFileOrComplain(cli.metrics_path, json)) return 1;
    std::fprintf(stderr, "wrote metrics report to %s\n",
                 cli.metrics_path.c_str());
  }
  if (!cli.heatmap_path.empty()) {
    // Deterministic flavor (layout-dependent channels omitted): exports
    // from different --shards/--shard-threads runs of one seed byte-match.
    std::string json = (*simulation)->heatmap()->ToJson(false);
    if (!WriteFileOrComplain(cli.heatmap_path, json)) return 1;
    std::fprintf(stderr, "wrote heat-map export to %s\n",
                 cli.heatmap_path.c_str());
  }
  if (!cli.report_path.empty()) {
    std::string json = (*simulation)->ObservabilityJson();
    std::string error;
    std::unique_ptr<obs::JsonValue> root = obs::ParseJson(json, &error);
    if (root == nullptr) {
      std::fprintf(stderr, "internal error: observability JSON: %s\n",
                   error.c_str());
      return 1;
    }
    std::string title = std::string("mobieyes_sim ") +
                        sim::SimModeName(cli.config.mode) + " seed=" +
                        std::to_string(cli.config.params.seed);
    if (!WriteFileOrComplain(cli.report_path,
                             obs::RenderHtmlReport(*root, title))) {
      return 1;
    }
    std::fprintf(stderr, "wrote HTML report to %s\n", cli.report_path.c_str());
  }
  return 0;
}

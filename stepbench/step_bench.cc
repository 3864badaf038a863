// Step benchmark harness. Runs one named workload single-threaded through the
// public sim::Simulation API and prints one JSON line of raw samples, which
// run.py turns into the benchmark's metrics and checks.
//
//   step_bench --workload NAME --seed N --seconds S --trace 0|1
//   step_bench --host-ref
//
// A run is a sequence of episodes: one full Simulation::Make followed by a
// fixed number of measured Run(1) steps. The episodes cycle through
// kInstances workload instances derived from the seed, and repeat until the
// time budget is spent, so set-up and step samples are spread over the whole
// run instead of sitting inside one host drift window, and every repeat of
// an instance must reproduce the same deterministic outputs.
//
// With --trace 1, untraced and traced episodes alternate. A traced episode
// enables the program's own trace spans and installs timing wrappers around
// the server's uplink handler, every client's downlink handler and the
// broadcast coverage query. The wrappers keep an exclusive-time stack, since
// synchronous delivery nests calls (uplink -> broadcast -> client receive ->
// uplink ...), so the per-layer times are disjoint parts of the step.
//
// --host-ref times a fixed pointer chase (cache-resident, then DRAM-bound) so
// that a set of runs that moved together with it can be attributed to the
// host rather than the code.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "mobieyes/core/rebalance.h"
#include "mobieyes/sim/simulation.h"

namespace {

using namespace mobieyes;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Why each workload exists is recorded in stepbench/README.md.
struct WorkloadSpec {
  const char* name;
  int objects;
  int queries;
  int velocity_changes;  // nmo, objects that change velocity per step
  double area;           // square miles
  double alpha;
  sim::SimMode mode;
  sim::ObjectDistribution distribution;
  int hotspots;
  double hotspot_sigma;  // fraction of the universe side
  int shards;
  const char* rebalance;  // "off" or STRIDE:THRESHOLD:MAX_MOVES
  int checkpoint_stride;
  int steps_per_episode;
  int agreement_stride;  // oracle agreement sampled after every k-th step
};

// The gated workloads are Table 1 at one fifth of its scale: a fifth of the
// objects, queries, velocity changes and area, so densities and per-object
// costs stay the paper's. At this size a step's working set is a few MB,
// close to a core's L2, and the step time hardly depends on how much of the
// shared L3 other tenants of the host hold (see README.md). The hotspot
// workload puts its 80% in forty small hotspots (sigma about 3.2 miles)
// rather than the generator's five wide ones, whose placement would decide
// the load.
constexpr WorkloadSpec kWorkloads[] = {
    {"uniform_eqp_2k", 2000, 200, 200, 20000.0, 5.0,
     sim::SimMode::kMobiEyesEager, sim::ObjectDistribution::kUniform, 0, 0.0,
     1, "off", 0, 100, 10},
    {"dense_lqp_20k", 20000, 5000, 1000, 100000.0, 10.0,
     sim::SimMode::kMobiEyesLazy, sim::ObjectDistribution::kUniform, 0, 0.0,
     1, "off", 0, 12, 6},
    {"hotspot_sharded_2k", 2000, 200, 200, 20000.0, 5.0,
     sim::SimMode::kMobiEyesEager, sim::ObjectDistribution::kHotspot, 40,
     0.0224, 4, "1:1.05:8", 1, 100, 10},
};

// A small workload drawn from one seed is a small sample of Table 1's
// distributions (200 queries, 2000 speeds), so its cost moves with the seed;
// a run averages over several instances. Instance i of seed s is generated
// from seed s * kInstances + i.
constexpr int kInstances = 4;

Result<sim::SimulationConfig> MakeConfig(const WorkloadSpec& w, uint64_t seed,
                                         bool traced) {
  sim::SimulationConfig config;
  config.params.num_objects = w.objects;
  config.params.num_queries = w.queries;
  config.params.velocity_changes_per_step = w.velocity_changes;
  config.params.area_square_miles = w.area;
  config.params.alpha = w.alpha;
  config.params.object_distribution = w.distribution;
  if (w.hotspots > 0) {
    config.params.num_hotspots = w.hotspots;
    config.params.hotspot_sigma_fraction = w.hotspot_sigma;
  }
  config.params.seed = seed;
  config.mode = w.mode;
  config.mobieyes.sharding.num_shards = w.shards;
  MOBIEYES_RETURN_NOT_OK(
      core::ParseRebalanceSpec(w.rebalance, &config.mobieyes.sharding));
  config.checkpoint_stride = w.checkpoint_stride;
  config.shard_threads = 1;
  config.obs.enable_trace = traced;
  return config;
}

// Exclusive-time accounting for the wrapped entry points. Slot t <
// kNumMessageTypes is the server's dispatch of uplink type t; the last two
// slots are broadcast coverage and client receive.
class Ledger {
 public:
  static constexpr size_t kCover = net::kNumMessageTypes;
  static constexpr size_t kReceive = kCover + 1;
  static constexpr size_t kSlots = kReceive + 1;

  Ledger() { stack_.reserve(64); }

  bool idle() const { return stack_.empty(); }

  void Enter(size_t slot) {
    ++calls_[slot];
    stack_.push_back(Frame{slot, NowNs(), 0});
  }

  // Closes the innermost call and returns its inclusive duration.
  int64_t Exit() {
    const int64_t end = NowNs();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const int64_t inclusive = end - frame.start_ns;
    exclusive_ns_[frame.slot] += inclusive - frame.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += inclusive;
    return inclusive;
  }

  int64_t exclusive_ns(size_t slot) const { return exclusive_ns_[slot]; }
  uint64_t calls(size_t slot) const { return calls_[slot]; }

 private:
  struct Frame {
    size_t slot;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  int64_t exclusive_ns_[kSlots] = {};
  uint64_t calls_[kSlots] = {};
};

// Splits the client's LQT-evaluation stopwatch, which is inclusive of the
// result reports it sends, into evaluation and nested dispatch. A result
// report dispatched at the top of the wrapper stack comes from its sender's
// OnTick; it was sent by EvaluateQueries exactly when that client's
// evaluation counter already advanced in this step (cell-crossing reports
// are sent before the evaluation runs).
struct EvalProbe {
  std::vector<uint64_t> evaluated_before;
  int64_t nested_ns = 0;

  void Snapshot(sim::Simulation& s) {
    for (size_t oid = 0; oid < evaluated_before.size(); ++oid) {
      evaluated_before[oid] =
          s.client(static_cast<ObjectId>(oid))->queries_evaluated();
    }
  }
};

void InstallWrappers(sim::Simulation& s, Ledger* ledger, EvalProbe* probe) {
  net::WirelessNetwork& network = s.network();
  core::MobiEyesServer* server = s.server();
  network.set_server_handler(
      [&s, server, ledger, probe](ObjectId from, const net::Message& message) {
        const bool top = ledger->idle();
        ledger->Enter(static_cast<size_t>(message.type));
        server->OnUplink(from, message);
        const int64_t inclusive = ledger->Exit();
        if (top && message.type == net::MessageType::kResultBitmapReport &&
            s.client(from)->queries_evaluated() >
                probe->evaluated_before[static_cast<size_t>(from)]) {
          probe->nested_ns += inclusive;
        }
      });
  for (size_t oid = 0; oid < s.world().object_count(); ++oid) {
    core::MobiEyesClient* client = s.client(static_cast<ObjectId>(oid));
    network.RegisterClient(static_cast<ObjectId>(oid),
                           [client, ledger](const net::Message& message) {
                             ledger->Enter(Ledger::kReceive);
                             client->OnDownlink(message);
                             ledger->Exit();
                           });
  }
  const mobility::World* world = &s.world();
  network.set_coverage_query(
      [world, ledger](const geo::Circle& circle,
                      const std::function<void(ObjectId)>& fn) {
        ledger->Enter(Ledger::kCover);
        world->ForEachObjectInCircle(circle, fn);
        ledger->Exit();
      });
}

// Sum of the durations of the recorder's events named `name`, in ns.
int64_t SpanTotalNs(const obs::TraceRecorder& trace, const char* name) {
  int64_t total_us = 0;
  for (const obs::TraceEvent& event : trace.events()) {
    if (std::strcmp(event.name, name) == 0) {
      total_us += static_cast<int64_t>(event.dur_us);
    }
  }
  return total_us * 1000;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-independent digest of every installed query's result set: a sum of
// mixed (qid, oid) pairs, plus the member count.
std::string ResultDigest(sim::Simulation& s) {
  uint64_t sum = 0;
  uint64_t members = 0;
  for (QueryId qid : s.installed_queries()) {
    auto result = s.server()->QueryResult(qid);
    if (!result.ok()) {
      sum += Mix64(~static_cast<uint64_t>(qid));
      continue;
    }
    for (ObjectId oid : *result) {
      sum += Mix64((static_cast<uint64_t>(qid) << 32) ^
                   static_cast<uint64_t>(oid));
      ++members;
    }
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx:%llu",
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(members));
  return buf;
}

// Per-layer totals over every measured step of the traced episodes.
struct LayerTotals {
  int64_t steps = 0;
  int64_t wall_ns = 0;
  int64_t world_ns = 0;
  int64_t eval_ns = 0;
  double load_s = 0.0;
  double step_phase_s = 0.0;
  uint64_t evals = 0;
  uint64_t lqt_sum = 0;
  uint64_t objects = 0;
  uint64_t broadcasts = 0;
  uint64_t receptions = 0;
  uint64_t downlinks = 0;
  uint64_t bytes = 0;
  uint64_t handoffs = 0;
  uint64_t rebalance_cells = 0;
  Ledger ledger;
};

struct Deterministic {
  double msgs_per_step = 0.0;
  double result_agreement = 0.0;
  std::string digest;
};

struct Episode {
  int instance = 0;
  bool traced = false;
  double setup_s = 0.0;
  double install_ms = 0.0;  // traced episodes only
  std::vector<double> step_ms;
  Deterministic det;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Result<Episode> RunEpisode(const WorkloadSpec& w, uint64_t seed, int instance,
                           bool traced, LayerTotals* totals) {
  auto config = MakeConfig(w, seed * kInstances + instance, traced);
  MOBIEYES_RETURN_NOT_OK(config.status());
  Episode episode;
  episode.instance = instance;
  episode.traced = traced;

  const int64_t setup_start = NowNs();
  auto made = sim::Simulation::Make(std::move(config).value());
  const int64_t setup_end = NowNs();
  MOBIEYES_RETURN_NOT_OK(made.status());
  std::unique_ptr<sim::Simulation> s = std::move(made).value();
  episode.setup_s = static_cast<double>(setup_end - setup_start) * 1e-9;

  obs::TraceRecorder* trace = s->trace_recorder();
  EvalProbe probe;
  if (traced) {
    episode.install_ms =
        static_cast<double>(SpanTotalNs(*trace, "server.install_query")) *
        1e-6;
    trace->Clear();
    probe.evaluated_before.resize(s->world().object_count());
    InstallWrappers(*s, &totals->ledger, &probe);
  }

  double agreement_sum = 0.0;
  int agreement_samples = 0;
  for (int step = 0; step < w.steps_per_episode; ++step) {
    if (traced) probe.Snapshot(*s);
    const int64_t start = NowNs();
    s->Run(1);
    const int64_t wall = NowNs() - start;
    episode.step_ms.push_back(static_cast<double>(wall) * 1e-6);
    if (traced) {
      totals->wall_ns += wall;
      totals->world_ns += SpanTotalNs(*trace, "world.step");
      trace->Clear();
    }
    // Oracle agreement is sampled outside the timed interval.
    if ((step + 1) % w.agreement_stride == 0) {
      agreement_sum += s->CurrentAccuracy().agreement;
      ++agreement_samples;
    }
  }

  const sim::RunMetrics m = s->metrics();
  const net::NetworkStats& net = m.network;
  const double steps = static_cast<double>(m.steps);
  episode.det.msgs_per_step =
      static_cast<double>(net.total_messages()) / steps;
  episode.det.result_agreement =
      agreement_sum / static_cast<double>(agreement_samples);
  episode.det.digest = ResultDigest(*s);
  episode.attempted = net.total_messages() + s->installed_queries().size();
  episode.failed =
      net.total_undeliverable() + net.total_dropped() + m.uplinks_dropped;

  if (traced) {
    totals->steps += m.steps;
    totals->eval_ns += static_cast<int64_t>(m.client_processing_seconds * 1e9) -
                       probe.nested_ns;
    totals->load_s += m.server_seconds;
    totals->step_phase_s += m.server_step_seconds;
    totals->evals += m.queries_evaluated;
    totals->lqt_sum += m.lqt_size_sum;
    totals->objects = static_cast<uint64_t>(m.objects);
    totals->broadcasts += net.broadcast_messages;
    totals->receptions += net.broadcast_receptions;
    totals->downlinks += net.downlink_messages;
    totals->bytes += net.uplink_bytes + net.downlink_bytes;
    totals->handoffs += net.inter_shard_handoffs;
    totals->rebalance_cells += m.rebalance_cells_moved;
  }
  return episode;
}

// --- JSON output -------------------------------------------------------------

class JsonObject {
 public:
  void Number(const char* key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void String(const char* key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Numbers(const char* key, const std::vector<double>& values) {
    std::string list = "[";
    for (size_t k = 0; k < values.size(); ++k) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.17g", k ? ", " : "", values[k]);
      list += buf;
    }
    Raw(key, list + "]");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + json;
  }
  std::string Close() const { return (body_.empty() ? "{" : body_) + "}"; }

 private:
  std::string body_;
};

std::string LayersJson(const LayerTotals& t) {
  const double steps = static_cast<double>(t.steps);
  auto per_step_ms = [steps](double ns) { return ns * 1e-6 / steps; };
  auto per_step = [steps](double count) { return count / steps; };
  const Ledger& ledger = t.ledger;
  JsonObject layers;
  for (size_t type = 0; type < net::kNumMessageTypes; ++type) {
    const double ns = static_cast<double>(ledger.exclusive_ns(type));
    const std::string name =
        net::MessageTypeName(static_cast<net::MessageType>(type));
    layers.Number(("core.server.dispatch_ms." + name).c_str(),
                  per_step_ms(ns));
    layers.Number(("core.server.uplinks." + name).c_str(),
                  per_step(static_cast<double>(ledger.calls(type))));
  }
  const double cover_ns =
      static_cast<double>(ledger.exclusive_ns(Ledger::kCover));
  const double receive_ns =
      static_cast<double>(ledger.exclusive_ns(Ledger::kReceive));
  layers.Number("net.cover_ms", per_step_ms(cover_ns));
  layers.Number("net.broadcasts", per_step(static_cast<double>(t.broadcasts)));
  layers.Number("net.receptions_per_broadcast",
                t.broadcasts ? static_cast<double>(t.receptions) /
                                   static_cast<double>(t.broadcasts)
                             : 0.0);
  layers.Number("net.downlinks", per_step(static_cast<double>(t.downlinks)));
  layers.Number("net.bytes", per_step(static_cast<double>(t.bytes)));
  layers.Number("core.client.receive_ms", per_step_ms(receive_ns));
  layers.Number("core.client.receives",
                per_step(static_cast<double>(ledger.calls(Ledger::kReceive))));
  layers.Number("core.client.eval_ms",
                per_step_ms(static_cast<double>(t.eval_ns)));
  layers.Number("core.client.evals", per_step(static_cast<double>(t.evals)));
  layers.Number("core.client.lqt_avg",
                static_cast<double>(t.lqt_sum) /
                    (steps * static_cast<double>(t.objects)));
  layers.Number("core.server.step_phase_ms", per_step_ms(t.step_phase_s * 1e9));
  layers.Number("core.server.load_ms", per_step_ms(t.load_s * 1e9));
  layers.Number("core.router.handoffs",
                per_step(static_cast<double>(t.handoffs)));
  layers.Number("core.router.rebalance_cells",
                per_step(static_cast<double>(t.rebalance_cells)));
  layers.Number("mobility.world_step_ms",
                per_step_ms(static_cast<double>(t.world_ns)));
  layers.Number("sim.traced_step_ms",
                per_step_ms(static_cast<double>(t.wall_ns)));
  return layers.Close();
}

std::string EpisodeJson(const Episode& e) {
  JsonObject json;
  json.Number("instance", e.instance);
  json.Number("traced", e.traced ? 1 : 0);
  json.Number("setup_s", e.setup_s);
  if (e.traced) json.Number("install_ms", e.install_ms);
  json.Numbers("step_ms", e.step_ms);
  json.Number("msgs_per_step", e.det.msgs_per_step);
  json.Number("result_agreement", e.det.result_agreement);
  json.String("digest", e.det.digest);
  json.Number("attempted", static_cast<double>(e.attempted));
  json.Number("failed", static_cast<double>(e.failed));
  return json.Close();
}

// --- Host reference ----------------------------------------------------------

// Walks `hops` steps of a single random cycle over `bytes` of memory and
// returns the wall time in ms. Sattolo's shuffle makes one cycle, so every
// load depends on the previous one and the walk covers the whole buffer.
double ChaseMs(size_t bytes, uint64_t hops) {
  const size_t n = bytes / sizeof(uint32_t);
  std::vector<uint32_t> next(n);
  std::iota(next.begin(), next.end(), 0u);
  std::mt19937_64 rng(12345);
  for (size_t k = n - 1; k > 0; --k) std::swap(next[k], next[rng() % k]);
  uint32_t at = 0;
  const int64_t start = NowNs();
  for (uint64_t h = 0; h < hops; ++h) at = next[at];
  const int64_t end = NowNs();
  if (at == n) std::printf("unreachable\n");  // keeps the walk observable
  return static_cast<double>(end - start) * 1e-6;
}

int HostRef() {
  const double cache_ms = ChaseMs(size_t{256} << 10, 10'000'000);
  const double dram_ms = ChaseMs(size_t{64} << 20, 500'000);
  JsonObject json;
  json.Number("cache_ms", cache_ms);
  json.Number("dram_ms", dram_ms);
  json.Number("ref_ms", cache_ms + dram_ms);
  std::printf("%s\n", json.Close().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: step_bench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       step_bench --host-ref\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool seed_set = false;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (arg == "--host-ref") return HostRef();
    if (k + 1 >= argc) return Usage();
    const char* value = argv[++k];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", value);
        return 2;
      }
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      seed_set = *value != '\0' && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0') seconds = -1.0;
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") == 0 ? 0
              : std::strcmp(value, "1") == 0 ? 1
                                             : -1;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || !seed_set || seconds < 0.0 || trace < 0) {
    return Usage();
  }

  // At least one episode of every instance; with tracing, blocks of one
  // untraced and one traced episode of every instance, alternating. Past the
  // minimum, an episode starts only if one as long as the longest so far
  // still fits the budget (traced episodes are the longer ones).
  const int min_episodes = trace ? 2 * kInstances : kInstances;
  LayerTotals totals;
  std::vector<Episode> episodes;
  const int64_t start = NowNs();
  const auto budget_ns = static_cast<int64_t>(seconds * 1e9);
  int64_t longest_ns = 0;
  while (static_cast<int>(episodes.size()) < min_episodes ||
         NowNs() - start + longest_ns <= budget_ns) {
    const int k = static_cast<int>(episodes.size());
    const bool traced = trace == 1 && (k / kInstances) % 2 == 1;
    const int64_t episode_start = NowNs();
    auto episode =
        RunEpisode(*workload, seed, k % kInstances, traced, &totals);
    longest_ns = std::max(longest_ns, NowNs() - episode_start);
    if (!episode.ok()) {
      std::fprintf(stderr, "episode failed: %s\n",
                   episode.status().ToString().c_str());
      return 1;
    }
    episodes.push_back(std::move(episode).value());
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonObject json;
  json.String("workload", workload->name);
  json.Number("seed", static_cast<double>(seed));
  json.Number("objects", workload->objects);
  json.Number("instances", kInstances);
  json.Number("steps_per_episode", workload->steps_per_episode);
  json.Number("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::string list = "[";
  for (size_t k = 0; k < episodes.size(); ++k) {
    list += (k ? ", " : "") + EpisodeJson(episodes[k]);
  }
  json.Raw("episodes", list + "]");
  if (trace) json.Raw("layers", LayersJson(totals));
  std::printf("%s\n", json.Close().c_str());
  return 0;
}

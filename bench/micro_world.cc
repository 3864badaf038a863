// Microbenchmarks for the mobility layer (google-benchmark): World::Step
// (motion + velocity redraws + cell-index maintenance) and the visitor
// iteration primitives, at 1k/10k/100k/1M objects. These are the per-step
// hot paths every simulation mode sits on top of; regressions here slow the
// entire bench suite.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/mobility/world.h"

#ifndef NDEBUG
// Debug builds count global allocations so the steady-state-zero claim for
// World::Step is asserted, not assumed (it would be invisible in a timing
// run). Release builds keep the default operators: the counter itself would
// perturb what the bench measures.
namespace {
uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif  // NDEBUG

namespace {

using mobieyes::ObjectId;
using mobieyes::Rng;
using mobieyes::geo::Circle;
using mobieyes::geo::Grid;
using mobieyes::geo::Point;
using mobieyes::geo::Rect;
using mobieyes::mobility::ObjectState;
using mobieyes::mobility::World;

// Table 1 scale: 100000 sq miles, alpha = 5, speeds up to ~250 mph.
constexpr double kSide = 316.227766;

Grid MakeGrid() { return *Grid::Make(Rect{0, 0, kSide, kSide}, 5.0); }

World MakeWorld(const Grid& grid, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectState> objects;
  objects.reserve(n);
  for (int k = 0; k < n; ++k) {
    ObjectState object;
    object.oid = static_cast<ObjectId>(k);
    object.pos = Point{rng.NextDouble(0, kSide), rng.NextDouble(0, kSide)};
    object.max_speed = rng.NextDouble(0.01, 0.07);  // ~36..250 mph
    object.vel = {rng.NextDouble(-0.05, 0.05), rng.NextDouble(-0.05, 0.05)};
    objects.push_back(object);
  }
  return *World::Make(grid, std::move(objects));
}

void BM_WorldStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid grid = MakeGrid();
  World world = MakeWorld(grid, n, 1);
  Rng rng(2);
  world.Step(30.0, n / 10, rng);  // warm the span-rebuild scratch
#ifndef NDEBUG
  // The SoA step must be allocation-free at steady state (ISSUE S2): probe
  // one dedicated step outside the timed loop, where no harness-internal
  // heap traffic can pollute the count.
  const uint64_t allocs_before = g_alloc_count;
  world.Step(30.0, n / 10, rng);
  if (g_alloc_count != allocs_before) {
    state.SkipWithError("World::Step allocated at steady state");
  }
#endif
  for (auto _ : state) {
    world.Step(30.0, n / 10, rng);  // nmo/no = 10% as in Table 1
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WorldStep)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

void BM_ForEachObjectInCircle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid grid = MakeGrid();
  World world = MakeWorld(grid, n, 3);
  Rng rng(4);
  for (auto _ : state) {
    Circle circle{Point{rng.NextDouble(20, kSide - 20),
                        rng.NextDouble(20, kSide - 20)},
                  10.0};
    uint64_t hits = 0;
    world.ForEachObjectInCircle(circle, [&](ObjectId) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForEachObjectInCircle)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The same scan with the visitor behind a std::function, as every caller in
// the program has it (WirelessNetwork's coverage hook delivers a broadcast
// through one). The per-object call is opaque, so unlike the inlined
// counter above the scan cannot fold the containment test into the count.
void BM_ForEachObjectInCircleOpaque(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid grid = MakeGrid();
  World world = MakeWorld(grid, n, 3);
  Rng rng(4);
  uint64_t hits = 0;
  const std::function<void(ObjectId)> visit = [&hits](ObjectId) { ++hits; };
  for (auto _ : state) {
    Circle circle{Point{rng.NextDouble(20, kSide - 20),
                        rng.NextDouble(20, kSide - 20)},
                  10.0};
    world.ForEachObjectInCircle(circle, visit);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForEachObjectInCircleOpaque)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_ForEachObjectUnderCoverage(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid grid = MakeGrid();
  World world = MakeWorld(grid, n, 5);
  Rng rng(6);
  for (auto _ : state) {
    Circle circle{Point{rng.NextDouble(20, kSide - 20),
                        rng.NextDouble(20, kSide - 20)},
                  10.0};
    uint64_t hits = 0;
    world.ForEachObjectUnderCoverage(circle, [&](ObjectId) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForEachObjectUnderCoverage)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

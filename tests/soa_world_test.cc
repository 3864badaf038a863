// Tests pinning the data-oriented World rewrite (DESIGN.md §11): the SoA
// state plus CSR cell spans must be bit-for-bit equivalent to the
// straightforward array-of-structs simulation it replaced, and the span
// index must stay a canonical partition of the object set under churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/geo/circle.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/geo/query_region.h"
#include "mobieyes/mobility/motion_model.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/sim/oracle.h"

namespace {

using mobieyes::ObjectId;
using mobieyes::Rng;
using mobieyes::Seconds;
using mobieyes::geo::CellCoord;
using mobieyes::geo::Circle;
using mobieyes::geo::Grid;
using mobieyes::geo::Point;
using mobieyes::geo::QueryRegion;
using mobieyes::geo::Rect;
using mobieyes::geo::Vec2;
using mobieyes::mobility::ObjectState;
using mobieyes::mobility::RandomVelocityModel;
using mobieyes::mobility::World;
using mobieyes::sim::ExactOracle;

constexpr double kSide = 100.0;

Grid MakeGrid() { return *Grid::Make(Rect{0, 0, kSide, kSide}, 10.0); }

std::vector<ObjectState> MakeObjects(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectState> objects;
  objects.reserve(n);
  for (int k = 0; k < n; ++k) {
    ObjectState object;
    object.oid = static_cast<ObjectId>(k);
    object.pos = Point{rng.NextDouble(0, kSide), rng.NextDouble(0, kSide)};
    object.vel = {rng.NextDouble(-2, 2), rng.NextDouble(-2, 2)};
    object.max_speed = rng.NextDouble(0.5, 3.0);
    object.attr = rng.NextDouble(0, 1);
    objects.push_back(object);
  }
  return objects;
}

// Array-of-structs reference simulation: the pre-SoA World::Step semantics,
// re-implemented over plain ObjectState structs with the exact same RNG
// consumption order (partial Fisher-Yates over a persistent identity
// buffer, then angle/speed per redraw, then a reflecting advance).
class AosReference {
 public:
  AosReference(const Grid& grid, std::vector<ObjectState> objects)
      : grid_(&grid), objects_(std::move(objects)) {
    pick_buffer_.reserve(objects_.size());
    for (size_t k = 0; k < objects_.size(); ++k) {
      pick_buffer_.push_back(static_cast<ObjectId>(k));
    }
  }

  void Step(Seconds dt, int velocity_changes, Rng& rng) {
    const auto n = static_cast<uint64_t>(objects_.size());
    const auto changes = static_cast<uint64_t>(
        std::min<int64_t>(velocity_changes, static_cast<int64_t>(n)));
    for (uint64_t k = 0; k < changes; ++k) {
      uint64_t pick = k + rng.NextUint64(n - k);
      std::swap(pick_buffer_[k], pick_buffer_[pick]);
      RandomizeVelocity(objects_[static_cast<size_t>(pick_buffer_[k])], rng);
    }
    for (ObjectState& object : objects_) {
      RandomVelocityModel::Advance(object, dt, grid_->universe());
      object.cell = grid_->CellOf(object.pos);
    }
  }

  const std::vector<ObjectState>& objects() const { return objects_; }

 private:
  static void RandomizeVelocity(ObjectState& object, Rng& rng) {
    RandomVelocityModel::RandomizeVelocity(object, rng);
  }

  const Grid* grid_;
  std::vector<ObjectState> objects_;
  std::vector<ObjectId> pick_buffer_;
};

// The SoA world and the AoS reference must stay bit-identical — positions,
// velocities and cells compared with operator== on doubles, not a
// tolerance — across many steps of mixed motion and velocity churn.
TEST(SoaWorldTest, BitIdenticalToAosReferenceAcrossSteps) {
  Grid grid = MakeGrid();
  const int n = 400;
  std::vector<ObjectState> initial = MakeObjects(n, 11);
  auto world = World::Make(grid, initial);
  ASSERT_TRUE(world.ok());
  AosReference reference(grid, initial);

  Rng world_rng(23);
  Rng reference_rng(23);
  for (int step = 0; step < 60; ++step) {
    world->Step(1.5, n / 8, world_rng);
    reference.Step(1.5, n / 8, reference_rng);
    for (int k = 0; k < n; ++k) {
      const auto oid = static_cast<ObjectId>(k);
      const ObjectState& expected = reference.objects()[k];
      const Point pos = world->position(oid);
      const Vec2 vel = world->velocity(oid);
      ASSERT_EQ(pos.x, expected.pos.x) << "step " << step << " oid " << k;
      ASSERT_EQ(pos.y, expected.pos.y) << "step " << step << " oid " << k;
      ASSERT_EQ(vel.x, expected.vel.x) << "step " << step << " oid " << k;
      ASSERT_EQ(vel.y, expected.vel.y) << "step " << step << " oid " << k;
      const CellCoord cell = world->cell(oid);
      ASSERT_EQ(cell.i, expected.cell.i);
      ASSERT_EQ(cell.j, expected.cell.j);
    }
  }
}

// ForEachObjectInCircle over the span index must agree with a brute-force
// scan of the AoS reference state, every step (the equivalence above plus
// identical Contains arithmetic makes this exact, not approximate).
TEST(SoaWorldTest, CircleVisitorMatchesAosBruteForceEveryStep) {
  Grid grid = MakeGrid();
  const int n = 300;
  std::vector<ObjectState> initial = MakeObjects(n, 31);
  auto world = World::Make(grid, initial);
  ASSERT_TRUE(world.ok());
  AosReference reference(grid, initial);

  Rng world_rng(37);
  Rng reference_rng(37);
  Rng probe_rng(41);
  for (int step = 0; step < 30; ++step) {
    world->Step(1.0, n / 10, world_rng);
    reference.Step(1.0, n / 10, reference_rng);
    Circle circle{Point{probe_rng.NextDouble(0, kSide),
                        probe_rng.NextDouble(0, kSide)},
                  probe_rng.NextDouble(3, 30)};
    std::set<ObjectId> via_spans;
    world->ForEachObjectInCircle(
        circle, [&](ObjectId oid) { via_spans.insert(oid); });
    std::set<ObjectId> brute;
    for (const ObjectState& object : reference.objects()) {
      if (circle.Contains(object.pos)) brute.insert(object.oid);
    }
    ASSERT_EQ(via_spans, brute) << "step " << step;
  }
}

// ForEachObjectInCircle streams each row span through CollectCircle in
// chunks of kCoverageChunk lanes. One cell holding more than two chunks of
// objects, some of them exactly on the circle's boundary, must still yield
// the brute-force Circle::Contains set in the visitor's documented order:
// row-major over cells, ascending oid within a cell.
TEST(SoaWorldTest, ChunkedCircleVisitorMatchesBruteForceInOrder) {
  Grid grid = MakeGrid();
  const Circle circle{Point{48.0, 48.0}, 5.0};
  // Points at distance exactly 5 (3-4-5 triangles: every operation of the
  // squared-distance test is exact), spread over four cells and both rows.
  const std::vector<Point> boundary = {{53, 48}, {43, 48}, {48, 53}, {48, 43},
                                       {51, 52}, {45, 44}, {52, 51}, {44, 45}};
  // Objects 0..599 sit in cell (4, 4) = [40, 50)^2, except every 75th,
  // which takes the next boundary point.
  const int crowded = 600;
  ASSERT_GT(crowded, 2 * static_cast<int>(World::kCoverageChunk));
  std::vector<ObjectState> objects = MakeObjects(crowded + 200, 61);
  Rng rng(67);
  for (int k = 0; k < crowded; ++k) {
    Point& pos = objects[k].pos;
    if (k % 75 == 0) {
      pos = boundary[(k / 75) % boundary.size()];
    } else {
      pos = Point{rng.NextDouble(40, 50), rng.NextDouble(40, 50)};
    }
  }
  auto world = World::Make(grid, objects);
  ASSERT_TRUE(world.ok());

  std::vector<ObjectId> visited;
  world->ForEachObjectInCircle(
      circle, [&](ObjectId oid) { visited.push_back(oid); });

  std::vector<ObjectId> brute;
  for (const ObjectState& object : objects) {
    if (circle.Contains(object.pos)) brute.push_back(object.oid);
  }
  std::sort(brute.begin(), brute.end(), [&](ObjectId a, ObjectId b) {
    const CellCoord ca = world->cell(a);
    const CellCoord cb = world->cell(b);
    return std::tie(ca.j, ca.i, a) < std::tie(cb.j, cb.i, b);
  });
  EXPECT_EQ(visited, brute);
  // The boundary points are inside (the predicate is <=), including those
  // beyond the first chunk of the crowded cell.
  for (int k = 0; k < crowded; k += 75) {
    EXPECT_NE(std::find(visited.begin(), visited.end(), k), visited.end())
        << "boundary object " << k;
  }
}

// The batched cell-major oracle pass must return, per query, exactly the
// bytes the per-query path returns: same ids, same order.
TEST(SoaWorldTest, BatchedOracleMatchesPerQueryEvaluation) {
  Grid grid = MakeGrid();
  const int n = 500;
  auto world = World::Make(grid, MakeObjects(n, 47));
  ASSERT_TRUE(world.ok());
  ExactOracle oracle(*world);

  std::vector<ExactOracle::BatchQuery> queries;
  Rng rng(53);
  for (int q = 0; q < 24; ++q) {
    ExactOracle::BatchQuery query;
    query.focal_oid = static_cast<ObjectId>(rng.NextUint64(n));
    query.region = (q % 3 == 0)
                       ? QueryRegion::MakeRectangle(rng.NextDouble(4, 30),
                                                    rng.NextDouble(4, 30))
                       : QueryRegion::MakeCircle(rng.NextDouble(2, 20));
    query.filter_threshold = (q % 4 == 0) ? rng.NextDouble(0.2, 0.9) : 1.0;
    queries.push_back(query);
  }

  std::vector<std::vector<ObjectId>> batched;
  oracle.EvaluateAllInto(queries, &batched);
  ASSERT_EQ(batched.size(), queries.size());
  std::vector<ObjectId> single;
  for (size_t q = 0; q < queries.size(); ++q) {
    oracle.EvaluateInto(queries[q].focal_oid, queries[q].region,
                        queries[q].filter_threshold, &single);
    ASSERT_EQ(batched[q], single) << "query " << q;
  }
}

void CheckSpanInvariants(const World& world) {
  const Grid& grid = world.grid();
  const std::vector<uint32_t>& offsets = world.cell_span_offsets();
  const std::vector<uint32_t>& items = world.cell_span_items();
  const auto cells = static_cast<size_t>(grid.CellCount());
  const size_t n = world.object_count();

  // CSR shape: cells + 1 offsets, monotone, covering exactly n items.
  ASSERT_EQ(offsets.size(), cells + 1);
  ASSERT_EQ(offsets.front(), 0u);
  ASSERT_EQ(offsets.back(), n);
  ASSERT_EQ(items.size(), n);

  std::vector<bool> seen(n, false);
  for (size_t flat = 0; flat < cells; ++flat) {
    ASSERT_LE(offsets[flat], offsets[flat + 1]);
    for (uint32_t k = offsets[flat]; k < offsets[flat + 1]; ++k) {
      const uint32_t oid = items[k];
      ASSERT_LT(oid, n);
      // Partition: each object appears exactly once, in its own cell's span.
      ASSERT_FALSE(seen[oid]);
      seen[oid] = true;
      const auto flat_of_oid = static_cast<size_t>(
          grid.FlatIndex(world.cell(static_cast<ObjectId>(oid))));
      ASSERT_EQ(flat_of_oid, flat);
      ASSERT_EQ(static_cast<size_t>(grid.FlatIndex(
                    grid.CellOf(world.position(static_cast<ObjectId>(oid))))),
                flat);
      // Canonical order: ascending oid within each span.
      if (k > offsets[flat]) {
        ASSERT_LT(items[k - 1], oid);
      }
    }
  }
}

// The span index must remain a canonical (cell, ascending oid) partition of
// all objects through heavy migration churn and through SetObjectState
// teleports.
TEST(SoaWorldTest, CellSpansStayCanonicalUnderChurn) {
  Grid grid = MakeGrid();
  const int n = 600;
  auto world = World::Make(grid, MakeObjects(n, 59));
  ASSERT_TRUE(world.ok());
  CheckSpanInvariants(*world);

  Rng rng(61);
  for (int step = 0; step < 40; ++step) {
    // dt large enough that many objects cross cells each step.
    world->Step(4.0, n / 5, rng);
    CheckSpanInvariants(*world);
  }

  // Teleport a few objects across the universe (forced single migrations).
  for (int k = 0; k < 10; ++k) {
    const auto oid = static_cast<ObjectId>(rng.NextUint64(n));
    world->SetObjectState(
        oid, Point{rng.NextDouble(0, kSide), rng.NextDouble(0, kSide)},
        Vec2{0.0, 0.0});
    CheckSpanInvariants(*world);
  }
}

}  // namespace

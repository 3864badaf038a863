#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/common/status.h"
#include "mobieyes/common/stopwatch.h"
#include "mobieyes/common/units.h"

namespace mobieyes {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("no such query");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "no such query");
  EXPECT_EQ(status.ToString(), "NotFound: no such query");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::InvalidArgument("bad"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> taken = std::move(result).value();
  EXPECT_EQ(*taken, 7);
}

TEST(ReturnNotOkMacroTest, PropagatesError) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    MOBIEYES_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int k = 0; k < 100; ++k) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int k = 0; k < 10000; ++k) {
    double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BoundedUintRespectsBound) {
  Rng rng(9);
  for (int k = 0; k < 10000; ++k) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, BoundedUintCoversAllResidues) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int k = 0; k < 5000; ++k) {
    ++counts[rng.NextUint64(5)];
  }
  for (int count : counts) {
    EXPECT_GT(count, 800);  // roughly uniform: expectation 1000
    EXPECT_LT(count, 1200);
  }
}

TEST(RngTest, RangeDoubleWithinBounds) {
  Rng rng(13);
  for (int k = 0; k < 1000; ++k) {
    double v = rng.NextDouble(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int k = 0; k < n; ++k) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParametersShiftsAndScales) {
  Rng rng(19);
  const int n = 50000;
  double sum = 0.0;
  for (int k = 0; k < n; ++k) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int k = 0; k < n; ++k) {
    if (rng.NextBernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent_a(5);
  Rng parent_b(5);
  Rng child_a = parent_a.Fork();
  Rng child_b = parent_b.Fork();
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(child_a.NextUint64(), child_b.NextUint64());
  }
}

// --- ZipfSampler ------------------------------------------------------------

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(5, 0.8);
  double total = 0.0;
  for (int k = 0; k < 5; ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfTest, PmfMonotonicallyDecreasing) {
  ZipfSampler zipf(10, 0.8);
  for (int k = 1; k < 10; ++k) {
    EXPECT_LT(zipf.pmf(k), zipf.pmf(k - 1));
  }
}

TEST(ZipfTest, PmfOutOfRangeIsZero) {
  ZipfSampler zipf(5, 0.8);
  EXPECT_EQ(zipf.pmf(-1), 0.0);
  EXPECT_EQ(zipf.pmf(5), 0.0);
}

TEST(ZipfTest, SampleFrequenciesMatchPmf) {
  ZipfSampler zipf(5, 0.8);
  Rng rng(29);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int k = 0; k < n; ++k) ++counts[zipf.Sample(rng)];
  for (int k = 0; k < 5; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k), 0.01);
  }
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfSampler zipf(4, 0.0);
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(zipf.pmf(k), 0.25, 1e-12);
  }
}

// --- Units ------------------------------------------------------------------

TEST(UnitsTest, MphRoundTrips) {
  EXPECT_DOUBLE_EQ(MphToMilesPerSecond(3600.0), 1.0);
  EXPECT_DOUBLE_EQ(MilesPerSecondToMph(MphToMilesPerSecond(123.4)), 123.4);
}

// --- Stopwatch / ReentrantTimer --------------------------------------------

TEST(StopwatchTest, AccumulatesElapsedTime) {
  Stopwatch watch;
  watch.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  watch.Stop();
  EXPECT_GT(watch.total_seconds(), 0.003);
  watch.Reset();
  EXPECT_EQ(watch.total_seconds(), 0.0);
}

TEST(ReentrantTimerTest, NestedEntriesCountOnce) {
  ReentrantTimer timer;
  timer.Enter();
  timer.Enter();  // nested: must not restart the clock
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  timer.Exit();
  timer.Exit();
  double once = timer.total_seconds();
  EXPECT_GT(once, 0.003);
  EXPECT_LT(once, 1.0);
}

// Busy-waits until `duration` of steady_clock time has passed since the
// call; unlike a sleep, the interval is bounded by the clock, not the
// scheduler, from both sides.
void SpinFor(std::chrono::steady_clock::duration duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// The stopwatch counts raw cycle ticks and converts them with a factor
// calibrated against steady_clock, so the two must agree over any interval
// long enough to dwarf a clock read.
TEST(StopwatchTest, CycleCounterAgreesWithSteadyClock) {
  Stopwatch watch;
  const auto begin = std::chrono::steady_clock::now();
  watch.Start();
  SpinFor(std::chrono::milliseconds(25));
  watch.Stop();
  const double steady = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
  ASSERT_GE(steady, 0.020);
  EXPECT_NEAR(watch.total_seconds(), steady, 0.01 * steady);
}

// A pause around foreign work inside a timed section is excluded from the
// total. The bounds are relative to the measured wall time, so a slow or
// loaded host cannot break them.
TEST(ReentrantTimerTest, PausedSleepIsExcluded) {
  ReentrantTimer timer;
  const auto begin = std::chrono::steady_clock::now();
  {
    TimedSection timed(timer);
    SpinFor(std::chrono::milliseconds(2));
    {
      TimerPause pause(timer);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    SpinFor(std::chrono::milliseconds(2));
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
  EXPECT_GT(timer.total_seconds(), 0.0035);
  EXPECT_LT(timer.total_seconds(), wall - 0.0045);
}

TEST(ReentrantTimerTest, TimedSectionGuards) {
  ReentrantTimer timer;
  {
    TimedSection outer(timer);
    TimedSection inner(timer);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(timer.total_seconds(), 0.001);
}

}  // namespace
}  // namespace mobieyes

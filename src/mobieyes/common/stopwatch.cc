#include "mobieyes/common/stopwatch.h"

namespace mobieyes {
namespace {

using Clock = std::chrono::steady_clock;

// A counter reading and the steady_clock time it was taken at.
struct ClockPair {
  uint64_t ticks;
  Clock::time_point time;
};

// Brackets a counter read between two clock reads and dates it at their
// midpoint. A bracket wider than 10 us means the thread was preempted
// between the reads, which would skew the calibration; such a pair is
// retried (a few times at most).
ClockPair ReadPair() {
  constexpr auto kMaxBracket = std::chrono::microseconds(10);
  for (int attempt = 0;; ++attempt) {
    const Clock::time_point before = Clock::now();
    const uint64_t ticks = CycleTicks();
    const Clock::time_point after = Clock::now();
    if (after - before <= kMaxBracket || attempt == 8) {
      return ClockPair{ticks, before + (after - before) / 2};
    }
  }
}

// The calibration baseline's start. Taken during static initialization
// (below), so by the time a total is first read the baseline is usually
// long and the conversion needs no spin inside a timed region. The
// function-local static also covers a read from another translation unit's
// static initializer.
const ClockPair& Anchor() {
  static const ClockPair anchor = ReadPair();
  return anchor;
}
[[maybe_unused]] const bool kAnchored = (Anchor(), true);

double Calibrate() {
  constexpr auto kMinBaseline = std::chrono::milliseconds(1);
  const ClockPair& start = Anchor();
  ClockPair end = ReadPair();
  while (end.time - start.time < kMinBaseline) end = ReadPair();
  const double seconds =
      std::chrono::duration<double>(end.time - start.time).count();
  const uint64_t ticks = end.ticks - start.ticks;
  // A counter that did not advance cannot be calibrated; assume the
  // nanosecond fallback's unit rather than divide by zero.
  return ticks == 0 ? 1e-9 : seconds / static_cast<double>(ticks);
}

}  // namespace

double SecondsPerTick() {
  static const double seconds_per_tick = Calibrate();
  return seconds_per_tick;
}

}  // namespace mobieyes

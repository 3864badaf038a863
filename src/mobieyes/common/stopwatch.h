#ifndef MOBIEYES_COMMON_STOPWATCH_H_
#define MOBIEYES_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace mobieyes {

// Raw reading of the stopwatch clock. On x86-64 this is the time-stamp
// counter (one `rdtsc`, about half the cost of a vDSO steady_clock read);
// elsewhere it is steady_clock in nanoseconds. Ticks are only meaningful as
// differences, converted to seconds by SecondsPerTick().
inline uint64_t CycleTicks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Seconds per CycleTicks() unit, calibrated once per process against
// steady_clock over the interval since static initialization (at least
// 1 ms; the first call spins out the remainder if the process is younger).
// The counter must tick at a constant rate (`constant_tsc`/`nonstop_tsc`
// on x86-64), which every x86-64 part of the last decade does.
double SecondsPerTick();

// Accumulating monotonic stopwatch; used to measure "server load" and
// "per-object processing load" (wall time spent inside processing logic per
// simulation step), mirroring the paper's §5.2 metric. It accumulates raw
// clock ticks, so Start/Stop cost one counter read each and the conversion
// to seconds happens only when the total is read.
class Stopwatch {
 public:
  void Start() { start_ = CycleTicks(); }

  // Stops the current interval and adds it to the accumulated total. A
  // reading behind the start (a counter skew between cores) adds nothing.
  void Stop() {
    const uint64_t now = CycleTicks();
    ticks_ += now > start_ ? now - start_ : 0;
  }

  double total_seconds() const {
    return static_cast<double>(ticks_) * SecondsPerTick();
  }
  void Reset() { ticks_ = 0; }

 private:
  uint64_t start_ = 0;
  uint64_t ticks_ = 0;
};

// Reentrancy-safe accumulating timer: only the outermost Enter/Exit pair
// starts and stops the clock, so synchronous message deliveries that loop
// back into an already-timed component are not double counted. Pause/Resume
// exclude nested foreign work (e.g. message delivery into other components)
// from the measurement.
class ReentrantTimer {
 public:
  void Enter() {
    bool was = running();
    ++enter_depth_;
    Sync(was);
  }
  void Exit() {
    bool was = running();
    --enter_depth_;
    Sync(was);
  }
  void Pause() {
    bool was = running();
    ++pause_depth_;
    Sync(was);
  }
  void Resume() {
    bool was = running();
    --pause_depth_;
    Sync(was);
  }

  double total_seconds() const { return watch_.total_seconds(); }
  void Reset() { watch_.Reset(); }

 private:
  bool running() const { return enter_depth_ > 0 && pause_depth_ == 0; }
  void Sync(bool was_running) {
    bool now = running();
    if (now && !was_running) watch_.Start();
    if (!now && was_running) watch_.Stop();
  }

  Stopwatch watch_;
  int enter_depth_ = 0;
  int pause_depth_ = 0;
};

// RAII guard excluding a scope from a ReentrantTimer's measurement.
class TimerPause {
 public:
  explicit TimerPause(ReentrantTimer& timer) : timer_(timer) {
    timer_.Pause();
  }
  ~TimerPause() { timer_.Resume(); }

  TimerPause(const TimerPause&) = delete;
  TimerPause& operator=(const TimerPause&) = delete;

 private:
  ReentrantTimer& timer_;
};

// RAII guard for ReentrantTimer.
class TimedSection {
 public:
  explicit TimedSection(ReentrantTimer& timer) : timer_(timer) {
    timer_.Enter();
  }
  ~TimedSection() { timer_.Exit(); }

  TimedSection(const TimedSection&) = delete;
  TimedSection& operator=(const TimedSection&) = delete;

 private:
  ReentrantTimer& timer_;
};

// RAII guard that accumulates the scope's duration into a Stopwatch.
class ScopedTimer {
 public:
  explicit ScopedTimer(Stopwatch& watch) : watch_(watch) { watch_.Start(); }
  ~ScopedTimer() { watch_.Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Stopwatch& watch_;
};

}  // namespace mobieyes

#endif  // MOBIEYES_COMMON_STOPWATCH_H_

// Wall-clock timing utilities for solver timings and benchmarks.
#pragma once

#include <chrono>

namespace asyrgs {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { reset(); }

  /// Restarts the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last reset().
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Runs `fn` and returns the elapsed wall time in seconds.
template <typename Fn>
double timed_seconds(Fn&& fn) {
  WallTimer t;
  fn();
  return t.seconds();
}

}  // namespace asyrgs

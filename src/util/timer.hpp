#pragma once

#include <chrono>
#include <cstdint>

namespace apv::util {

/// Monotonic wall-clock time in seconds since an arbitrary epoch.
/// This is the clock behind MPI_Wtime in the apv::mpi layer.
double wall_time() noexcept;

/// Resolution hint for wall_time(), in seconds (MPI_Wtick analogue).
double wall_tick() noexcept;

/// Monotonic time in nanoseconds, for microbenchmarks.
std::uint64_t wall_time_ns() noexcept;

/// Simple scoped stopwatch over the monotonic clock.
class WallTimer {
 public:
  WallTimer() noexcept : start_(wall_time_ns()) {}

  /// Seconds elapsed since construction or the last reset().
  double elapsed_s() const noexcept {
    return static_cast<double>(wall_time_ns() - start_) * 1e-9;
  }

  void reset() noexcept { start_ = wall_time_ns(); }

 private:
  std::uint64_t start_;
};

}  // namespace apv::util

#pragma once

// Shared pieces of the apv end-to-end benchmark: the per-rank log every
// rank program writes its op latencies and results into, the span tracer
// the rank programs wrap around each Env call, and the description of one
// workload (its program image, shape and result check).

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/method.hpp"
#include "image/image.hpp"

namespace apv::mpi {}
namespace apv::sim {}

namespace apvbench {

namespace core = apv::core;
namespace img = apv::img;
namespace mpi = apv::mpi;
namespace sim = apv::sim;
namespace util = apv::util;

/// Microseconds on the steady clock.
inline double now_us() noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span covers: the op itself, one kind of Env call, or the rank
/// program's compute kernel.
/// Collectives are split by payload so each gets its own mpi.coll_us.
enum class Span : std::uint8_t {
  Op,
  Send,
  Recv,
  Irecv,
  Waitall,
  Allreduce8,
  Allreduce64K,
  Bcast4K,
  Allgather64,
  Alltoall64,
  Gatherv,
  Barrier,
  LoadBalance,
  AddLoad,
  Checkpoint,
  Kernel,
  kCount
};
inline constexpr int kSpanKinds = static_cast<int>(Span::kCount);

/// The module a span's time is charged to.
enum class Layer : std::uint8_t { Bench, Mpi, Lb, Ft, Apps, kCount };
inline constexpr int kLayers = static_cast<int>(Layer::kCount);

const char* span_name(Span s) noexcept;
Layer span_layer(Span s) noexcept;
const char* layer_name(Layer l) noexcept;

/// One recorded span. `parent` indexes the same rank's buffer (-1: an op).
struct SpanRec {
  double t0_us = 0.0;
  double t1_us = 0.0;
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  Span kind = Span::Op;
};

/// Everything one rank reports. Written only from that rank's ULT (one PE
/// thread at a time, also across migrations), read by the rep loop after
/// Runtime::run() returned.
class RankLog {
 public:
  /// Prepares the log for a rep: timing ranks reserve `expected_ops`
  /// latency samples and, when tracing, a buffer of `span_cap` spans (later
  /// spans still count in the aggregates but are not buffered).
  void reset(bool timing, bool tracing, std::size_t expected_ops,
             std::size_t span_cap);

  /// Brackets one op. Only timing ranks record a latency sample.
  void op_begin(std::uint32_t op) noexcept;
  void op_end() noexcept;
  void op_failed() noexcept { ++failed_; }

  /// Runs `f` inside a span of kind `s` when tracing and directly inside
  /// an op (spans are two levels deep: op, then the calls it makes).
  template <typename F>
  decltype(auto) call(Span s, F&& f) {
    if (!tracing_ || depth_ != 1) return f();
    Guard g(*this, s);
    return f();
  }

  // --- results --------------------------------------------------------------
  std::vector<double> values;  ///< per-op outputs (residual, dt, ...)
  double result = 0.0;         ///< per-rank scalar output

  bool timing() const noexcept { return timing_; }
  const std::vector<float>& op_us() const noexcept { return op_us_; }
  std::uint64_t ops() const noexcept { return ops_; }
  std::uint64_t failed() const noexcept { return failed_; }

  // --- trace aggregates (timing ranks, inside ops) --------------------------
  const std::vector<SpanRec>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  double kind_us(Span s) const noexcept {
    return kind_us_[static_cast<int>(s)];
  }
  std::uint64_t kind_calls(Span s) const noexcept {
    return kind_calls_[static_cast<int>(s)];
  }
  double layer_self_us(Layer l) const noexcept {
    return layer_self_us_[static_cast<int>(l)];
  }
  double op_total_us() const noexcept { return op_total_us_; }
  double op_covered_us() const noexcept { return op_covered_us_; }

 private:
  struct Open {
    double t0_us;
    double child_us;
    std::int32_t idx;
    Span kind;
  };
  struct Guard {
    Guard(RankLog& l, Span s) : log(l) { log.open(s); }
    ~Guard() { log.close(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    RankLog& log;
  };
  void open(Span s) noexcept;
  void close() noexcept;

  bool timing_ = false;
  bool tracing_ = false;
  std::vector<float> op_us_;
  std::uint64_t ops_ = 0;
  std::uint64_t failed_ = 0;
  std::uint32_t op_ = 0;
  double op_t0_us_ = 0.0;

  Open stack_[2] = {};
  int depth_ = 0;
  std::vector<SpanRec> spans_;
  std::size_t span_cap_ = 0;
  std::uint64_t dropped_ = 0;
  double kind_us_[kSpanKinds] = {};
  std::uint64_t kind_calls_[kSpanKinds] = {};
  double layer_self_us_[kLayers] = {};
  double op_total_us_ = 0.0;
  double op_covered_us_ = 0.0;
};

/// The logs of the rep currently running, indexed by world rank.
std::vector<RankLog>& logs();
/// Shorthand for a rank program: its own log.
inline RankLog& log_of(int world_rank) {
  return logs()[static_cast<std::size_t>(world_rank)];
}

/// Writes the spans of every rank as Chrome trace-event JSON (one track per
/// rank, times relative to `origin_us`). Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<RankLog>& logs, double origin_us);

/// One workload: a program image built from the seed plus its shape and
/// the closed-form or reference check of a finished rep.
struct Workload {
  std::string name;
  std::string shape;  ///< one line: ranks, method, sizes, op definition
  core::Method method = core::Method::None;
  int vps = 1;
  img::ProgramImage image;
  std::vector<int> timing_ranks;  ///< ranks whose ops are timed
  std::uint64_t ops_per_rep = 0;  ///< ops the timing ranks run per rep
  double flops_per_op = 0.0;      ///< computed kernel flops, whole job
  double bytes_per_op = 0.0;      ///< computed kernel bytes moved
  /// Checks a finished rep, when the rank programs cannot check everything
  /// themselves; returns the number of ops found wrong beyond those the
  /// rank programs already counted as failed.
  std::function<std::uint64_t(const std::vector<RankLog>&)> verify;
};

Workload make_p2p(std::uint64_t seed);
Workload make_stencil(std::uint64_t seed);
Workload make_surge(std::uint64_t seed);
Workload make_collectives(std::uint64_t seed);

/// Deterministic 64-bit mix of a few integers (SplitMix64 finalizer).
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0,
                         std::uint64_t c = 0) noexcept {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
                    c * 0x94d049bb133111ebULL + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace apvbench

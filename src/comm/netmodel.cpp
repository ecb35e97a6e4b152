#include "comm/netmodel.hpp"

#include "util/timer.hpp"

namespace apv::comm {

NetModel::NetModel(const util::Options& options)
    : enabled_(options.get_bool("net.enabled")),
      latency_us_(options.get_double("net.latency_us")),
      bandwidth_gb_s_(options.get_double("net.bandwidth_gb_s")) {}

double NetModel::cost_us(std::size_t bytes) const noexcept {
  double us = latency_us_;
  if (bandwidth_gb_s_ > 0.0)
    us += static_cast<double>(bytes) / (bandwidth_gb_s_ * 1e9) * 1e6;
  return us;
}

void NetModel::pace(std::size_t bytes) const noexcept { pace_n(1, bytes); }

void NetModel::pace_n(std::size_t msgs, std::size_t bytes) const noexcept {
  if (!enabled_ || msgs == 0) return;
  const double us =
      cost_us(bytes) + latency_us_ * static_cast<double>(msgs - 1);
  const std::uint64_t until =
      util::wall_time_ns() + static_cast<std::uint64_t>(us * 1e3);
  while (util::wall_time_ns() < until) {
    // Spin: paced sends are on the critical path of timing benches and
    // sleep granularity (~50 us) would swamp microsecond-scale latencies.
  }
}

}  // namespace apv::comm

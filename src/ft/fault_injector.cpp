#include "ft/fault_injector.hpp"

#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace apv::ft {

using util::ErrorCode;
using util::require;

FaultInjector::Config FaultInjector::config_from_options(
    const util::Options& opts) {
  Config c;
  const std::string policy = opts.get_string("ft.policy");
  c.policy = policy == "epoch"    ? Policy::AtEpoch
             : policy == "random" ? Policy::Random
                                  : Policy::None;
  c.pe = static_cast<comm::PeId>(opts.get_int("ft.pe"));
  c.epoch = static_cast<std::uint32_t>(opts.get_int("ft.epoch"));
  c.seed = static_cast<std::uint64_t>(opts.get_int("ft.seed"));
  c.horizon = static_cast<std::uint32_t>(opts.get_int("ft.horizon"));
  return c;
}

FaultInjector::FaultInjector(const Config& config, int num_pes)
    : policy_(config.policy) {
  if (policy_ == Policy::None) return;
  require(num_pes >= 2, ErrorCode::InvalidArgument,
          "fault injection needs >= 2 PEs: killing the only PE leaves no "
          "survivor to recover on");
  if (policy_ == Policy::AtEpoch) {
    require(config.pe >= 0 && config.pe < num_pes, ErrorCode::InvalidArgument,
            "ft.pe out of range");
    require(config.epoch >= 1, ErrorCode::InvalidArgument,
            "ft.epoch must be >= 1 (epochs are 1-based)");
    plan_pe_ = config.pe;
    plan_epoch_ = config.epoch;
  } else {
    require(config.horizon >= 1, ErrorCode::InvalidArgument,
            "ft.horizon must be >= 1");
    util::SplitMix64 rng(config.seed);
    plan_epoch_ = 1 + static_cast<std::uint32_t>(rng.next_below(
                          static_cast<std::uint64_t>(config.horizon)));
    plan_pe_ = static_cast<comm::PeId>(
        rng.next_below(static_cast<std::uint64_t>(num_pes)));
  }
}

comm::PeId FaultInjector::victim_for_epoch(std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (policy_ == Policy::None || epoch != plan_epoch_) return comm::kInvalidPe;
  fired_ = true;
  return plan_pe_;
}

int FaultInjector::kills() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fired_ ? 1 : 0;
}

}  // namespace apv::ft

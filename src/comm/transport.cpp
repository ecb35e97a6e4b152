#include "comm/transport.hpp"

#include "util/error.hpp"

namespace apv::comm {

using util::ErrorCode;
using util::require;

// One list, three consumers: the shm backend fills them, the inproc backend
// zero-fills them (A/B parity tests assert every key is present and zero),
// and bench/transport surfaces them.
const char* const kShmCounterKeys[] = {
    "shm.procs",
    "shm.remote_sends",
    "shm.remote_bytes",
    "shm.proxy_sends",
    "shm.staged_sends",
    "shm.polled_msgs",
    "shm.polled_bytes",
    "shm.ring_full_spins",
    "shm.send_failures",
    "shm.arena_allocs",
    "shm.arena_frees",
    "shm.arena_alloc_bytes",
    "shm.arena_freelist_hits",
    "shm.arena_exhausted",
    "shm.wrap_external",
    "shm.proc_deaths",
    "shm.failed_published",
    "shm.hb_beats",
};
const int kNumShmCounterKeys =
    static_cast<int>(sizeof(kShmCounterKeys) / sizeof(kShmCounterKeys[0]));

std::string shm_segment_name(const std::string& job) { return "/apv_" + job; }

namespace {

/// The seed topology: one process owns every PE. Routing never leaves the
/// local path, so Cluster's behaviour is byte-for-byte the pre-transport
/// semantics; the remote entry points exist only to fail loudly if a future
/// refactor miswires them.
class InprocTransport final : public Transport {
 public:
  const char* name() const noexcept override { return "inproc"; }
  int num_procs() const noexcept override { return 1; }
  int my_proc() const noexcept override { return 0; }
  int proc_of(PeId) const noexcept override { return 0; }
  bool is_local(PeId) const noexcept override { return true; }

  bool send_remote(Message&, bool) override {
    require(false, ErrorCode::Internal,
            "inproc transport has no remote PEs");
    return false;
  }

  std::size_t poll(PeId, const Sink&) override { return 0; }

  void set_failure_callback(FailureCallback) override {}
  void publish_pe_failed(PeId) override {}

  bool has_shared_locations() const noexcept override { return false; }
  void publish_location(RankId, PeId) override {}
  PeId shared_location(RankId) const override { return kInvalidPe; }
  int max_shared_ranks() const noexcept override { return 0; }

  void stop() noexcept override {}

  util::Counters counters() const override {
    util::Counters out;
    for (int i = 0; i < kNumShmCounterKeys; ++i) out.set(kShmCounterKeys[i], 0);
    return out;
  }
};

}  // namespace

// Defined in shm_transport.cpp.
std::unique_ptr<Transport> make_shm_transport(const util::Options& opt,
                                              const TransportConfig& cfg);

std::unique_ptr<Transport> make_transport(const util::Options& opt,
                                          const TransportConfig& cfg) {
  if (opt.get_string("transport.backend") == "inproc")
    return std::make_unique<InprocTransport>();
  return make_shm_transport(opt, cfg);
}

}  // namespace apv::comm

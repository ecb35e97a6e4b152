#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/message.hpp"
#include "comm/netmodel.hpp"
#include "comm/pe.hpp"
#include "comm/places.hpp"
#include "util/counters.hpp"
#include "util/options.hpp"

namespace apv::comm {

/// Why the bins of a PE are flushed; each cause feeds one counter.
enum class FlushCause : std::uint8_t {
  Idle,   ///< the PE idle hook (Ctr::CommFlushesIdle)
  Block,  ///< a rank about to block on the PE (Ctr::CommFlushesBlock)
  Order,  ///< per-sender FIFO (Ctr::CommFlushesOrder): a same-PE send
          ///< held behind a routed one that may still sit in the bins,
          ///< and a rank shipping out before its image takes another path
};

/// The emulated machine: `nodes` OS processes × `pes_per_node` PEs each
/// (paper Figure 1's layout). All nodes live in this OS process; node
/// boundaries are made real by the per-node Privatizer/Loader state above
/// this layer and by the NetModel pacing inter-node messages here.
///
/// Reads the net.* and sched.* options (util::option_table()).
class Cluster {
 public:
  struct Config {
    int nodes = 1;
    int pes_per_node = 1;
    util::Options options;  ///< net.* and sched.* keys
    ult::ContextBackend backend = ult::default_context_backend();
  };

  explicit Cluster(const Config& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int pes_per_node() const noexcept { return config_.pes_per_node; }
  int num_pes() const noexcept { return static_cast<int>(pes_.size()); }

  Pe& pe(PeId id);
  NodeId node_of(PeId id) const noexcept {
    return id / config_.pes_per_node;
  }

  const NetModel& net() const noexcept { return net_; }

  /// Where each rank is. The upper layer seeds it before start() and moves
  /// ranks through it; stop_and_join() refuses moves from then on.
  RankPlaces& places() noexcept { return places_; }
  const RankPlaces& places() const noexcept { return places_; }

  /// Routes a message to msg.dst_pe: inter-node hops pay the NetModel
  /// pacing on the calling thread, then the message lands in the
  /// destination PE's mailbox. UserData messages sent from a PE thread to
  /// another PE are coalesced per destination PE whenever they fit a bin
  /// (agg_fits) and shipped as aggregate envelopes (flushed once another
  /// entry of the size just appended would not fit, by a later non-bundled
  /// message to the same PE, by the sending PE going idle, or by the layer
  /// above through flush_aggregation, e.g. when a rank blocks); the
  /// per-(sender, destination) FIFO order is preserved across all of it.
  /// A message too big for a bin travels alone. Messages to a failed PE are
  /// diverted: user data follows its destination rank's place (or waits
  /// in the dead-letter queue until the rank is re-homed); control and
  /// migration traffic is dropped — it was addressed to a machine that no
  /// longer exists.
  void send(Message&& msg);

  /// send() for a message whose payload is still in the caller's buffer
  /// (`msg.payload` empty; the `bytes` bytes at `data` are its payload).
  /// The bytes are copied once: straight into the aggregation bin when the
  /// message is bundled, else into a pooled payload acquired for it.
  void send(Message&& msg, const void* data, std::size_t bytes);

  /// Flushes the aggregation bins owned by `src`, counting each nonempty
  /// bin under `cause`. Called from `src`'s own PE thread (the idle hook
  /// does this automatically once started).
  void flush_aggregation(PeId src, FlushCause cause);

  /// Messages currently sitting unflushed in `src`'s aggregation bins
  /// (approximate — safe to call from any thread; used by deadlock
  /// diagnostics).
  std::size_t pending_aggregated(PeId src) const;

  // --- failure injection (fault-tolerance tier) ---------------------------

  /// Declares a PE dead: its loop drains the backlog it already accepted
  /// and halts, and all further traffic to it is diverted (see send).
  /// Idempotent.
  void fail_pe(PeId pe);
  bool pe_failed(PeId pe) const;
  int num_live_pes() const noexcept {
    return num_pes() - failed_count_.load(std::memory_order_acquire);
  }
  /// pe -> not failed, indexed by PeId.
  std::vector<bool> alive_mask() const;

  /// Re-sends every dead-lettered user message to its destination rank's
  /// current place. Messages whose rank is still placed on a failed PE stay
  /// queued. Called by the recovery leader after re-homing the lost ranks.
  /// Returns the number delivered.
  std::size_t flush_dead_letters();
  std::size_t dead_letter_count() const;

  /// Launches one OS thread per PE running Pe::run_loop. Dispatchers must
  /// already be installed on every PE.
  void start();

  /// Refuses rank moves, signals every PE to stop and joins all threads.
  /// Idempotent.
  void stop_and_join();

  bool started() const noexcept { return started_; }

  /// Every counter slot summed over the PEs' blocks and the cluster's
  /// own (the one typed read of the counters; see util/counters.hpp).
  util::CounterValues totals() const;
  /// The cluster's own block: sends from threads that are no PE's loop
  /// thread, and the delivery-side counts any thread makes. Write it with
  /// add() only.
  util::CounterBlock& shared_counters() noexcept { return shared_ctr_; }

 private:
  struct AggBin {
    Payload buf;
    std::size_t used = 0;
    // Written only by the owning PE thread (plain load+store); atomic so the
    // timeout diagnostics can read a bin's depth from the main thread.
    std::atomic<std::uint32_t> count{0};
    std::uint64_t payload_bytes = 0;

    AggBin() = default;
    AggBin(AggBin&& o) noexcept
        : buf(std::move(o.buf)),
          used(o.used),
          count(o.count.load(std::memory_order_relaxed)),
          payload_bytes(o.payload_bytes) {}
  };
  /// True iff the calling thread is msg.src_pe's loop thread of *this*
  /// cluster: only that thread may touch src's bins and bump its counters.
  bool on_sender_pe(const Message& msg) const;
  AggBin& agg_bin(PeId src, PeId dst) {
    return bins_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
  }
  void append_to_bin(const Message& msg, const void* data, std::size_t bytes);
  void flush_bin(PeId src, PeId dst);
  /// The post-aggregation delivery path: divert-if-dead, counters,
  /// netmodel pacing, mailbox post.
  void deliver(Message&& msg);
  void divert(Message&& msg);

  Config config_;
  NetModel net_;
  RankPlaces places_;
  std::vector<std::unique_ptr<Pe>> pes_;
  /// bins_[src][dst]: src's aggregation bins, written only by src's loop
  /// thread.
  std::vector<std::vector<AggBin>> bins_;
  util::CounterBlock shared_ctr_;
  std::vector<std::thread> threads_;
  bool started_ = false;

  std::unique_ptr<std::atomic<bool>[]> failed_;
  std::atomic<int> failed_count_{0};
  mutable std::mutex dead_mutex_;
  std::deque<Message> dead_letters_;
};

}  // namespace apv::comm

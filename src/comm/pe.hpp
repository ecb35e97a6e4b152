#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "comm/places.hpp"
#include "ult/scheduler.hpp"

namespace apv::comm {

/// One processing element: a scheduler thread with a mailbox.
///
/// The PE's loop alternates between draining its mailbox (each message is
/// handed to the dispatcher installed by the layer above, on this thread)
/// and running ready ULTs. This "messages wake ranks on their own PE"
/// discipline is what makes blocking MPI calls race-free: a rank only
/// suspends and resumes on its resident PE's thread.
///
/// The mailbox is a lock-light MPSC ring (see Mailbox); the loop drains it
/// in batches of up to 64 envelopes per pass, and aggregate envelopes are
/// unbundled here — the dispatcher above only ever sees plain messages.
class Pe {
 public:
  /// Runs on the PE thread for every received message.
  using Dispatcher = std::function<void(Message&&)>;
  /// Runs once per idle loop iteration (progress hook for the upper layer).
  using IdleHook = std::function<void()>;
  /// Runs on the PE thread after the loop exits via stop() — not after a
  /// simulated crash (fail()), whose semantics are precisely "no cleanup
  /// ran". The MPI layer uses it to force-unwind ranks still parked here
  /// (fail-fast teardown abandons them mid-wait) so their fiber stacks
  /// release held resources before the slots are freed.
  using StopDrain = std::function<void()>;

  struct Config {
    Mailbox::Config mailbox;
    ult::Scheduler::Config sched;  ///< runqueue policy for this PE
  };

  /// `places` counts the rank moves in flight to this PE: the loop does not
  /// stop while one is.
  Pe(PeId id, NodeId node, ult::ContextBackend backend, const Config& config,
     const RankPlaces& places);

  PeId id() const noexcept { return id_; }
  NodeId node() const noexcept { return node_; }
  ult::Scheduler& scheduler() noexcept { return sched_; }
  /// This PE's event counters (its scheduler's block; the loop thread
  /// owns it).
  util::CounterBlock& counters() noexcept { return sched_.counters(); }

  /// Installs the message dispatcher. Must happen before the loop starts.
  void set_dispatcher(Dispatcher dispatcher);
  /// Registers an idle hook; all hooks run, in registration order, once per
  /// idle loop iteration (before the loop considers sleeping or exiting).
  /// The comm layer uses one to flush aggregation bins; the MPI layer uses
  /// one to close load-accounting slices.
  void add_idle_hook(IdleHook hook);
  /// Installs the stop-drain callback. Must happen before the loop starts.
  void set_stop_drain(StopDrain drain);

  /// Thread-safe: enqueues a message and wakes the PE if it is parked in
  /// idle_wait. A PE that is running or spinning is not signalled at all
  /// (Scheduler::ready_notify), and a post that races the park is not lost.
  void post(Message&& msg);

  std::size_t mailbox_depth() const { return mailbox_.size_approx(); }
  const Mailbox& mailbox() const noexcept { return mailbox_; }

  /// The PE loop body; Cluster runs this on a dedicated thread. Returns
  /// when stop() has been called and no work remains, and no rank is in
  /// flight to this PE.
  void run_loop();

  /// Requests loop exit once the mailbox and ready queue drain and no rank
  /// is in flight to this PE.
  void stop();

  /// Simulates a crash of this PE (fault injection). The loop finishes the
  /// work it has already accepted — backlog messages and ready ULTs — then
  /// exits; fresh traffic must be cut off at the routing layer
  /// (Cluster::fail_pe does both). The drain keeps the crash point well
  /// defined for the recovery protocol: commands posted before the failure
  /// (like the victim ranks' own checkpoint packs) still execute.
  void fail();

  /// True once fail() has been called.
  bool failed() const noexcept { return failed_.load(); }

  /// True while run_loop is executing.
  bool running() const noexcept { return running_.load(); }

  /// The PE whose loop is executing on the calling thread, or nullptr.
  static Pe* current() noexcept;

 private:
  bool drain_mailbox();
  void run_idle_hooks();

  PeId id_;
  NodeId node_;
  ult::Scheduler sched_;
  const RankPlaces& places_;
  Dispatcher dispatcher_;
  std::vector<IdleHook> idle_hooks_;
  StopDrain stop_drain_;

  Mailbox mailbox_;
  std::vector<Message> drain_buf_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> running_{false};
  std::uint64_t processed_ = 0;
};

}  // namespace apv::comm

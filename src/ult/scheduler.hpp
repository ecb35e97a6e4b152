#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "ult/context.hpp"
#include "ult/ult.hpp"
#include "util/counters.hpp"

namespace apv::ult {

/// Called just before the scheduler transfers control into `next`. This is
/// the hook point privatization methods use for per-context-switch work:
/// TLSglobals swaps the emulated TLS segment pointer here, Swapglobals swaps
/// the active GOT; the PIE-family methods do nothing (their globals are
/// addressed relative to the rank's own code copy).
using SwitchHook = std::function<void(Ult* next)>;

/// Cooperative, message-driven scheduler for one PE.
///
/// One OS thread drives run_one()/idle_wait(); ULTs of this scheduler call
/// yield()/suspend() from inside their bodies. suspend() may hand the
/// scheduler a continuation that runs on this thread right after the ULT
/// has switched out: the one place code sees a ULT parked for certain, so
/// the layers above pack, ship or overwrite a parked ULT there rather than
/// asking the loop to do it later. The ready queue is a
/// three-lane runqueue (High/Normal/Bulk, bitmap-selected, lowest lane
/// first with an anti-starvation escape) with two enqueue paths:
///
///  - Owner thread (the thread driving run_one — by far the common case,
///    since messages wake ranks on their own PE): a plain deque push with
///    no lock and no atomic RMW.
///  - Any other thread: a lock-free MPSC Treiber stack (intrusive
///    Ult::remote_next_), reversed into FIFO order when the owner drains
///    it. The scheduler mutex is only ever taken around the idle_wait
///    sleep, and by a waker only while the owner is parked there.
///
/// Cooperative preemption (config.preempt): enter() stamps a slice start,
/// and preempt_point() — called by the runtime at safe points (message
/// sends, collective entries, compute loops) — demotes the running ULT to
/// the Bulk lane once it exceeds config.quantum_us and other work waits.
/// With config.lanes=false (sched.policy=fifo) every enqueue collapses to
/// the Normal lane and preemption disarms: the seed's exact FIFO order.
class Scheduler {
 public:
  struct Config {
    bool lanes = true;     ///< false = single-lane seed-exact FIFO
    bool preempt = false;  ///< cooperative quantum preemption
    std::uint64_t quantum_us = 200;  ///< slice before preempt_point demotes
    int starve_limit = 8;  ///< consecutive High pops before yielding one
                           ///< slot to a lower lane (starvation freedom)
  };

  explicit Scheduler(ContextBackend backend = default_context_backend());
  Scheduler(ContextBackend backend, const Config& config);

  ContextBackend backend() const noexcept { return backend_; }
  const Config& config() const noexcept { return config_; }

  // --- scheduler-thread side ---------------------------------------------

  /// Enqueues a ULT as runnable on `lane` and wakes the PE if it is
  /// idle-waiting. Callable from any thread; the owning thread takes the
  /// uncontended fast path. With lanes disabled the hint is ignored.
  void ready(Ult* t, Lane lane = Lane::Normal);

  /// Runs the next ready ULT until it yields, suspends, or finishes.
  /// Returns false (without blocking) if no ULT is ready.
  bool run_one();

  /// Runs ready ULTs until the ready queue drains.
  void run_until_quiescent();

  /// Blocks the PE thread until a ULT becomes ready or stop() turns true,
  /// up to timeout_us. Returns true if ready work is available.
  bool idle_wait(const std::function<bool()>& stop, std::int64_t timeout_us);

  /// Wakes an idle_wait early. Call it after publishing external work
  /// that the stop predicate will observe (a mailbox post, a stop flag):
  /// the publication must precede the call. Costs one fence when the
  /// owner is not parked.
  void ready_notify();

  /// Queued ULTs (all lanes + undrained cross-thread pushes). Lock-free;
  /// safe from any thread (steal victim selection reads peers' depths).
  ///
  /// Memory order (audited under TSan, see DESIGN.md §14): both loads are
  /// deliberately relaxed. local_n_ is exact only on the owner thread;
  /// remote_n_ is bumped by producers before their Treiber push and
  /// decremented by the draining owner, so a cross-thread reader can see
  /// the two cells at slightly different instants. The only cross-thread
  /// consumer is steal-victim selection, an advisory depth *estimate* — a
  /// stale read picks a marginally worse victim, never corrupts state, and
  /// the thief re-validates with the victim before any rank moves. The
  /// owner-thread read in idle_wait is exact because the owner is the only
  /// writer of local_n_ and drains remote_n_ itself.
  std::size_t ready_count() const noexcept {
    return static_cast<std::size_t>(
        local_n_.load(std::memory_order_relaxed) +
        remote_n_.load(std::memory_order_relaxed));
  }

  /// Removes a queued ULT from the runqueue without running it (rank
  /// stealing packs it instead). Owner thread only. Returns false if the
  /// ULT is not found queued here (e.g. already dispatched).
  bool unqueue(Ult* t);

  // --- ULT side (call only from inside a running ULT of this scheduler) ---

  /// Requeues the current ULT and returns to the scheduler loop; the call
  /// returns when the ULT is next scheduled.
  void yield();

  /// Returns to the scheduler loop without requeueing; somebody must later
  /// ready() this ULT for it to run again. `then`, if given, runs on the
  /// scheduler's thread as the last step of the dispatch that ran this
  /// ULT: after it has switched out (state Blocked, current() == nullptr)
  /// and before any other ready ULT runs. It may ready() this ULT or hand
  /// its stack to another thread; the ULT's frames, where `then` was
  /// built, may be gone by the time it returns, so it owns its captures.
  void suspend(std::function<void()> then = nullptr);

  /// Terminates the current ULT. Called by the entry thunk when the body
  /// returns; may also be called explicitly.
  [[noreturn]] void exit_current();

  /// Cooperative preemption tick: when armed and the running ULT has
  /// exceeded its quantum while other work waits, demote it to the Bulk
  /// lane and switch out (the call returns when it is next scheduled).
  /// A single predicted branch when preemption is off.
  void preempt_point() {
    if (!preempt_armed_) [[likely]]
      return;
    if (current_ == nullptr) return;
    preempt_check();
  }

  /// The ULT currently executing on this scheduler, or nullptr.
  Ult* current() const noexcept { return current_; }

  /// Registers a context-switch hook; returns a handle for removal.
  int add_switch_hook(SwitchHook hook);
  void remove_switch_hook(int id);

  /// This PE's event counters (util/counters.hpp); the block's owner is
  /// the thread driving run_one. The scheduler counts context switches,
  /// lane dispatches, preemptions, overruns and cross-thread readies in
  /// it; comm::Pe hands it to the layers above.
  util::CounterBlock& counters() noexcept { return counters_; }

 private:
  /// Binds the runqueue's owner to the calling thread on first drive.
  void bind_owner() noexcept;
  bool owner_thread() const noexcept {
    return owner_.load(std::memory_order_relaxed) == std::this_thread::get_id();
  }
  void push_local(Ult* t, Lane lane);
  /// Moves the cross-thread MPSC stack into the lanes in FIFO order.
  void drain_remote();
  Ult* pop_ready();
  void preempt_check();
  void enter(Ult* next);
  void leave_current(UltState new_state);

  ContextBackend backend_;
  Config config_;
  bool preempt_armed_ = false;
  std::uint64_t quantum_ns_ = 0;
  Context sched_ctx_;
  Ult* current_ = nullptr;
  std::uint64_t slice_start_ns_ = 0;
  int hi_streak_ = 0;

  // Owner-thread runqueue state.
  std::array<std::deque<Ult*>, kLaneCount> lanes_;
  unsigned lane_mask_ = 0;  ///< bit l set iff lanes_[l] nonempty

  // Cross-thread MPSC push path + depth accounting. local_n_ is written
  // only by the owner thread (plain load+store bump); remote_n_ by
  // producers (fetch_add) and the draining owner (fetch_sub).
  std::atomic<Ult*> remote_head_{nullptr};
  std::atomic<std::uint64_t> local_n_{0};
  std::atomic<std::uint64_t> remote_n_{0};
  std::atomic<std::thread::id> owner_{};

  // mutex_/cv_/sleeping_ exist only for the idle_wait sleep (an
  // eventcount). The sleeper sets sleeping_ under mutex_, then fences
  // before its predicate check; a waker publishes its work, fences, and
  // takes mutex_ to notify only if it sees sleeping_. The two seq_cst
  // fences guarantee that either the predicate sees the work or the waker
  // sees the flag, and the mutex keeps the notify from landing between
  // the predicate check and the wait. Wakers of a PE that is not parked
  // never touch the mutex.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> sleeping_{false};

  util::CounterBlock counters_;

  std::vector<std::pair<int, SwitchHook>> hooks_;
  int next_hook_id_ = 0;

  std::function<void()> then_;  ///< suspend's continuation, run by enter()
};

/// The scheduler driving the calling OS thread right now (set for the
/// duration of run_one), or nullptr outside any scheduler.
Scheduler* current_scheduler() noexcept;

/// The ULT executing on the calling OS thread right now, or nullptr.
Ult* current_ult() noexcept;

}  // namespace apv::ult

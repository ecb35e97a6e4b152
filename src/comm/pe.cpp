#include "comm/pe.hpp"

#include <chrono>
#include <thread>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/sigstack.hpp"

namespace apv::comm {

using util::ErrorCode;
using util::require;

namespace {
thread_local Pe* g_current_pe = nullptr;

// Consecutive scheduler slices with an empty mailbox before the loop runs
// its idle hooks even though a ULT is still ready (see run_loop). A rank
// that blocks flushes its PE's bins itself (Runtime::block_current), so
// this covers only ranks that keep the scheduler busy without blocking: a
// rank spin-yielding on remote progress (the recovery leader's do_yield
// loop) or one preempted mid-compute. Small enough that a spin-waiting
// peer stalls only microseconds; large enough that bins still batch
// across bursts of back-to-back sends.
constexpr std::size_t kQuietSlicesBeforeFlush = 64;

// Envelopes moved out of the mailbox per drain pass.
constexpr std::size_t kDrainBatch = 64;

// Idle policy (see run_loop): yield-spin for kPollSpinUs after the loop
// first finds no work, then nap in idle_wait slices of kIdleNapUs.
constexpr std::int64_t kPollSpinUs = 200;
constexpr std::int64_t kIdleNapUs = 200;
}

Pe* Pe::current() noexcept { return g_current_pe; }

Pe::Pe(PeId id, NodeId node, ult::ContextBackend backend,
       const Config& config, const RankPlaces& places)
    : id_(id),
      node_(node),
      sched_(backend, config.sched),
      places_(places),
      mailbox_(config.mailbox) {
  drain_buf_.reserve(kDrainBatch);
}

void Pe::set_dispatcher(Dispatcher dispatcher) {
  require(!running_.load(), ErrorCode::BadState,
          "cannot change dispatcher while the PE loop runs");
  dispatcher_ = std::move(dispatcher);
}

void Pe::add_idle_hook(IdleHook hook) {
  require(!running_.load(), ErrorCode::BadState,
          "cannot add idle hooks while the PE loop runs");
  idle_hooks_.push_back(std::move(hook));
}

void Pe::set_stop_drain(StopDrain drain) {
  require(!running_.load(), ErrorCode::BadState,
          "cannot change the stop drain while the PE loop runs");
  stop_drain_ = std::move(drain);
}

void Pe::post(Message&& msg) {
  mailbox_.push(std::move(msg));
  // idle_wait's predicate (see run_loop) checks the mailbox, so the push
  // above is the work ready_notify publishes; it takes the scheduler mutex
  // only while this PE is parked.
  sched_.ready_notify();
}

bool Pe::drain_mailbox() {
  // One batched pass: swap up to kDrainBatch envelopes out of the ring
  // (lock-free), then dispatch them with the mailbox untouched. The loop
  // interleaves passes with run_one(), so a flood cannot starve the ULTs.
  drain_buf_.clear();
  if (mailbox_.pop_batch(drain_buf_, kDrainBatch) == 0) return false;
  for (Message& msg : drain_buf_) {
    if (msg.kind == Message::Kind::Aggregate) {
      unbundle(std::move(msg), [this](Message&& sub) {
        ++processed_;
        dispatcher_(std::move(sub));
      });
    } else {
      ++processed_;
      dispatcher_(std::move(msg));
    }
  }
  drain_buf_.clear();
  return true;
}

void Pe::run_idle_hooks() {
  for (const IdleHook& hook : idle_hooks_) hook();
}

void Pe::run_loop() {
  require(dispatcher_ != nullptr, ErrorCode::BadState,
          "PE loop needs a dispatcher");
  g_current_pe = this;
  // ULT stacks live inside isomalloc slots; when the dirty tracker arms a
  // slot read-only, the first push after resume faults *on the stack being
  // protected* — the SIGSEGV frame needs an alternate stack to land on.
  util::ensure_sigaltstack();
  running_.store(true);
  APV_DEBUG("pe", "PE %d (node %d) loop starting", id_, node_);
  std::size_t quiet_streak = 0;
  // Start of the current idle stretch; only idle iterations read the clock.
  bool idle = false;
  std::chrono::steady_clock::time_point idle_since;
  for (;;) {
    const bool had_msgs = drain_mailbox();
    const bool ran = sched_.run_one();
    if (had_msgs || ran) {
      idle = false;
      // A ULT can keep the scheduler busy forever while logically waiting on
      // remote progress (e.g. a recovery leader spin-yielding on a peer). If
      // such a spin left a message in an aggregation bin, the peer in turn
      // may be blocked on exactly that message — so bins must not ride out a
      // busy scheduler indefinitely. After a bounded streak of slices where
      // the mailbox stayed empty, run the idle hooks anyway; streaks with
      // traffic reset the clock, so bulk streams still batch by size.
      if (had_msgs) {
        quiet_streak = 0;
      } else if (++quiet_streak >= kQuietSlicesBeforeFlush) {
        quiet_streak = 0;
        run_idle_hooks();
      }
      continue;
    }
    quiet_streak = 0;
    run_idle_hooks();
    if (stop_.load() || failed_.load()) {
      // Exit only when really quiescent: a message may have raced in (and
      // the idle hooks above may have flushed aggregation bins our way),
      // and a live PE waits for every rank on its way here, so that its
      // stop drain unwinds it. A failed PE's arrivals are diverted.
      if (mailbox_.empty() && sched_.ready_count() == 0 &&
          (failed_.load() || places_.arriving(id_) == 0))
        break;
      continue;
    }
    // A reply usually arrives within microseconds of the PE running dry,
    // and parking would add a futex round trip to it. Spin (yielding, so a
    // thread sharing this core still runs) for a short window, then park.
    const auto now = std::chrono::steady_clock::now();
    if (!idle) {
      idle = true;
      idle_since = now;
    }
    if (now - idle_since < std::chrono::microseconds(kPollSpinUs)) {
      std::this_thread::yield();
      continue;
    }
    sched_.idle_wait(
        [this] {
          return stop_.load() || failed_.load() || mailbox_depth() > 0;
        },
        kIdleNapUs);
  }
  // Orderly stop (not a simulated crash): let the upper layer unwind
  // whatever is still parked on this scheduler, on this thread, while the
  // switch hooks and sigaltstack are still in place.
  if (stop_drain_ && !failed_.load()) stop_drain_();
  running_.store(false);
  g_current_pe = nullptr;
  APV_DEBUG("pe", "PE %d loop exited after %llu messages", id_,
            static_cast<unsigned long long>(processed_));
}

void Pe::stop() { stop_.store(true); sched_.ready_notify(); }

void Pe::fail() {
  failed_.store(true);
  sched_.ready_notify();
  APV_WARN("pe", "PE %d declared failed; draining backlog and halting", id_);
}

}  // namespace apv::comm

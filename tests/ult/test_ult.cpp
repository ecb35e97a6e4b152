// Unit tests for the user-level thread substrate: raw context switching on
// both backends, scheduler semantics, and switch hooks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ult/scheduler.hpp"
#include "util/counters.hpp"
#include "util/error.hpp"

using namespace apv;
using ult::ContextBackend;
using util::Ctr;

namespace {

std::vector<ContextBackend> available_backends() {
  std::vector<ContextBackend> out;
  if (ult::context_backend_available(ContextBackend::Asm))
    out.push_back(ContextBackend::Asm);
  out.push_back(ContextBackend::Ucontext);
  return out;
}

}  // namespace

class ContextPerBackend : public ::testing::TestWithParam<ContextBackend> {};

namespace {
struct PingState {
  ult::Context main_ctx;
  ult::Context ult_ctx;
  int step = 0;
};

void ping_entry(void* arg) {
  auto* st = static_cast<PingState*>(arg);
  st->step = 1;
  st->ult_ctx.switch_to(st->main_ctx);
  st->step = 3;
  st->ult_ctx.switch_to(st->main_ctx);
  abort();  // never resumed again
}
}  // namespace

TEST_P(ContextPerBackend, RawSwitchPreservesControlFlow) {
  std::vector<char> stack(64 << 10);
  PingState st;
  st.main_ctx.create_native(GetParam());
  st.ult_ctx.create(stack.data(), stack.size(), &ping_entry, &st, GetParam());
  EXPECT_EQ(st.step, 0);
  st.main_ctx.switch_to(st.ult_ctx);
  EXPECT_EQ(st.step, 1);
  st.step = 2;
  st.main_ctx.switch_to(st.ult_ctx);
  EXPECT_EQ(st.step, 3);
}

namespace {
struct FpState {
  ult::Context main_ctx;
  ult::Context ult_ctx;
  double result = 0.0;
};

void fp_entry(void* arg) {
  auto* st = static_cast<FpState*>(arg);
  // Keep FP values live across a switch: callee-saved FP state and the
  // stack must survive.
  double acc = 1.5;
  for (int i = 0; i < 10; ++i) {
    acc = acc * 1.25 + 0.125;
    st->ult_ctx.switch_to(st->main_ctx);
  }
  st->result = acc;
  st->ult_ctx.switch_to(st->main_ctx);
  abort();
}
}  // namespace

TEST_P(ContextPerBackend, FloatingPointSurvivesSwitches) {
  std::vector<char> stack(64 << 10);
  FpState st;
  st.main_ctx.create_native(GetParam());
  st.ult_ctx.create(stack.data(), stack.size(), &fp_entry, &st, GetParam());
  for (int i = 0; i < 11; ++i) st.main_ctx.switch_to(st.ult_ctx);
  double expect = 1.5;
  for (int i = 0; i < 10; ++i) expect = expect * 1.25 + 0.125;
  EXPECT_DOUBLE_EQ(st.result, expect);
}

TEST_P(ContextPerBackend, TinyStackRejected) {
  ult::Context ctx;
  char small[128];
  EXPECT_THROW(
      ctx.create(small, sizeof small, [](void*) {}, nullptr, GetParam()),
      util::ApvError);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ContextPerBackend, ::testing::ValuesIn(available_backends()),
    [](const ::testing::TestParamInfo<ContextBackend>& info) {
      return ult::context_backend_name(info.param);
    });

TEST(Context, MixedBackendSwitchRejected) {
  if (!ult::context_backend_available(ContextBackend::Asm)) GTEST_SKIP();
  ult::Context a, b;
  a.create_native(ContextBackend::Asm);
  b.create_native(ContextBackend::Ucontext);
  EXPECT_THROW(a.switch_to(b), util::ApvError);
}

// ---------------------------------------------------------------------------
// Scheduler

namespace {
struct Recorder {
  std::string log;
};

void appender_a(void* arg) {
  auto* r = static_cast<Recorder*>(arg);
  r->log += 'a';
  ult::current_scheduler()->yield();
  r->log += 'A';
}

void appender_b(void* arg) {
  auto* r = static_cast<Recorder*>(arg);
  r->log += 'b';
  ult::current_scheduler()->yield();
  r->log += 'B';
}
}  // namespace

TEST(Scheduler, FifoInterleaving) {
  ult::Scheduler sched;
  std::vector<char> s1(32 << 10), s2(32 << 10);
  Recorder rec;
  ult::Ult a(1, &appender_a, &rec, s1.data(), s1.size());
  ult::Ult b(2, &appender_b, &rec, s2.data(), s2.size());
  sched.ready(&a);
  sched.ready(&b);
  sched.run_until_quiescent();
  EXPECT_EQ(rec.log, "abAB");
  EXPECT_EQ(a.state(), ult::UltState::Done);
  EXPECT_EQ(b.state(), ult::UltState::Done);
}

namespace {
void suspender(void* arg) {
  auto* r = static_cast<Recorder*>(arg);
  r->log += 's';
  ult::current_scheduler()->suspend();
  r->log += 'S';
}
}  // namespace

TEST(Scheduler, SuspendNeedsExplicitResume) {
  ult::Scheduler sched;
  std::vector<char> s1(32 << 10);
  Recorder rec;
  ult::Ult t(1, &suspender, &rec, s1.data(), s1.size());
  sched.ready(&t);
  sched.run_until_quiescent();
  EXPECT_EQ(rec.log, "s");
  EXPECT_EQ(t.state(), ult::UltState::Blocked);
  sched.ready(&t);
  sched.run_until_quiescent();
  EXPECT_EQ(rec.log, "sS");
  EXPECT_EQ(t.state(), ult::UltState::Done);
}

namespace {
struct ThenRig {
  ult::Scheduler* sched = nullptr;
  ult::Ult* parker = nullptr;
  std::string log;
  ult::UltState parker_state = ult::UltState::Running;
  bool current_was_null = false;
};

void then_parker(void* arg) {
  auto* rig = static_cast<ThenRig*>(arg);
  rig->log += 'p';
  rig->sched->suspend([rig] {
    rig->log += 't';
    rig->parker_state = rig->parker->state();
    rig->current_was_null = rig->sched->current() == nullptr;
    rig->sched->ready(rig->parker);
  });
  rig->log += 'P';
}

void then_bystander(void* arg) { static_cast<ThenRig*>(arg)->log += 'b'; }
}  // namespace

TEST(Scheduler, SuspendThenRunsAfterSwitchOut) {
  ult::Scheduler sched;
  std::vector<char> s1(32 << 10), s2(32 << 10), s3(32 << 10);
  ThenRig rig;
  rig.sched = &sched;
  ult::Ult parker(1, &then_parker, &rig, s1.data(), s1.size());
  ult::Ult bystander(2, &then_bystander, &rig, s2.data(), s2.size());
  rig.parker = &parker;
  sched.ready(&parker);
  sched.ready(&bystander);
  sched.run_until_quiescent();
  // The continuation runs once the parker has switched out and before the
  // bystander queued ahead of it; its ready() then resumes the parker.
  EXPECT_EQ(rig.log, "ptbP");
  EXPECT_EQ(rig.parker_state, ult::UltState::Blocked);
  EXPECT_TRUE(rig.current_was_null);
  EXPECT_EQ(parker.state(), ult::UltState::Done);

  // Outside a ULT the call throws, and its continuation never runs — not
  // even after the next dispatch.
  bool ran = false;
  EXPECT_THROW(sched.suspend([&ran] { ran = true; }), util::ApvError);
  ult::Ult later(3, &then_bystander, &rig, s3.data(), s3.size());
  sched.ready(&later);
  sched.run_until_quiescent();
  EXPECT_EQ(rig.log, "ptbPb");
  EXPECT_FALSE(ran);
}

TEST(Scheduler, RunOneReturnsFalseWhenEmpty) {
  ult::Scheduler sched;
  EXPECT_FALSE(sched.run_one());
  EXPECT_EQ(sched.ready_count(), 0u);
}

TEST(Scheduler, SwitchHooksSeeNextUlt) {
  ult::Scheduler sched;
  std::vector<char> s1(32 << 10);
  Recorder rec;
  ult::Ult t(7, &suspender, &rec, s1.data(), s1.size());
  std::vector<ult::Ult::Id> seen;
  const int hook = sched.add_switch_hook([&](ult::Ult* next) {
    if (next != nullptr) seen.push_back(next->id());
  });
  sched.ready(&t);
  sched.run_until_quiescent();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 7u);
  sched.remove_switch_hook(hook);
  sched.ready(&t);
  sched.run_until_quiescent();
  EXPECT_EQ(seen.size(), 1u);  // hook removed, no more records
}

TEST(Scheduler, SwitchCountAdvances) {
  ult::Scheduler sched;
  std::vector<char> s1(32 << 10);
  Recorder rec;
  ult::Ult a(1, &appender_a, &rec, s1.data(), s1.size());
  sched.ready(&a);
  const auto before = sched.counters().get(Ctr::ContextSwitches);
  sched.run_until_quiescent();
  // initial run + post-yield
  EXPECT_EQ(sched.counters().get(Ctr::ContextSwitches), before + 2);
}

TEST(Scheduler, UltSideCallsOutsideUltThrow) {
  ult::Scheduler sched;
  EXPECT_THROW(sched.yield(), util::ApvError);
  EXPECT_THROW(sched.suspend(), util::ApvError);
}

TEST(Scheduler, IdleWaitTimesOut) {
  ult::Scheduler sched;
  EXPECT_FALSE(sched.idle_wait([] { return false; }, 1000));
}

TEST(Scheduler, IdleWaitSeesStopPredicate) {
  ult::Scheduler sched;
  EXPECT_FALSE(sched.idle_wait([] { return true; }, 1000000));
}

// A waker that publishes its work and notifies while the sleeper is between
// its predicate check and its wait must still end the wait early: the
// sleeper holds the scheduler mutex there, so a bare notify would be lost
// and the wait would run out its full timeout.
TEST(Scheduler, NotifyDuringPredicateCheckIsNotLost) {
  ult::Scheduler sched;
  std::atomic<bool> posted{false};
  std::thread waker;
  bool first = true;
  const auto t0 = std::chrono::steady_clock::now();
  sched.idle_wait(
      [&] {
        if (posted.load()) return true;
        if (first) {
          first = false;
          waker = std::thread([&] {
            posted.store(true);
            sched.ready_notify();
          });
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return false;
      },
      2000000);
  const auto waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  waker.join();
  EXPECT_TRUE(posted.load());
  EXPECT_LT(waited_ms, 500);
}

TEST(Scheduler, CurrentUltVisibleFromInside) {
  ult::Scheduler sched;
  std::vector<char> s1(32 << 10);
  static ult::Ult* observed;
  observed = nullptr;
  ult::Ult t(
      9, [](void*) { observed = ult::current_ult(); }, nullptr, s1.data(),
      s1.size());
  sched.ready(&t);
  sched.run_until_quiescent();
  EXPECT_EQ(observed, &t);
  EXPECT_EQ(ult::current_ult(), nullptr);
}

// ---------------------------------------------------------------------------
// Multi-lane runqueue + preemption

namespace {
// A body that appends one character and exits; the char rides in the low
// byte of the arg pointer's pointee.
struct Tagged {
  Recorder* rec;
  char tag;
};

void tag_once(void* arg) {
  auto* t = static_cast<Tagged*>(arg);
  t->rec->log += t->tag;
}
}  // namespace

TEST(SchedulerLanes, HighBeforeNormalBeforeBulk) {
  ult::Scheduler sched;
  Recorder rec;
  std::vector<std::vector<char>> stacks(3, std::vector<char>(32 << 10));
  Tagged th{&rec, 'h'}, tn{&rec, 'n'}, tb{&rec, 'b'};
  ult::Ult b(1, &tag_once, &tb, stacks[0].data(), stacks[0].size());
  ult::Ult n(2, &tag_once, &tn, stacks[1].data(), stacks[1].size());
  ult::Ult h(3, &tag_once, &th, stacks[2].data(), stacks[2].size());
  // Enqueue lowest-priority first: lane order must override arrival order.
  sched.ready(&b, ult::Lane::Bulk);
  sched.ready(&n, ult::Lane::Normal);
  sched.ready(&h, ult::Lane::High);
  sched.run_until_quiescent();
  EXPECT_EQ(rec.log, "hnb");
  EXPECT_EQ(sched.counters().get(Ctr::SchedDispatchHigh), 1u);
  EXPECT_EQ(sched.counters().get(Ctr::SchedDispatchNormal), 1u);
  EXPECT_EQ(sched.counters().get(Ctr::SchedDispatchBulk), 1u);
}

TEST(SchedulerLanes, FifoConfigCollapsesLanes) {
  ult::Scheduler::Config cfg;
  cfg.lanes = false;
  ult::Scheduler sched(ult::default_context_backend(), cfg);
  Recorder rec;
  std::vector<std::vector<char>> stacks(3, std::vector<char>(32 << 10));
  Tagged th{&rec, 'h'}, tn{&rec, 'n'}, tb{&rec, 'b'};
  ult::Ult b(1, &tag_once, &tb, stacks[0].data(), stacks[0].size());
  ult::Ult n(2, &tag_once, &tn, stacks[1].data(), stacks[1].size());
  ult::Ult h(3, &tag_once, &th, stacks[2].data(), stacks[2].size());
  sched.ready(&b, ult::Lane::Bulk);
  sched.ready(&n, ult::Lane::Normal);
  sched.ready(&h, ult::Lane::High);
  sched.run_until_quiescent();
  // Seed-exact FIFO: arrival order wins, hints ignored, everything counts
  // as a Normal-lane dispatch.
  EXPECT_EQ(rec.log, "bnh");
  EXPECT_EQ(sched.counters().get(Ctr::SchedDispatchHigh), 0u);
  EXPECT_EQ(sched.counters().get(Ctr::SchedDispatchNormal), 3u);
  EXPECT_EQ(sched.counters().get(Ctr::SchedDispatchBulk), 0u);
}

TEST(SchedulerLanes, StarvationEscapeYieldsToLowerLane) {
  ult::Scheduler::Config cfg;
  cfg.starve_limit = 2;
  ult::Scheduler sched(ult::default_context_backend(), cfg);
  Recorder rec;
  constexpr int kHigh = 5;
  std::vector<std::vector<char>> stacks(kHigh + 1,
                                        std::vector<char>(32 << 10));
  Tagged th{&rec, 'h'}, tn{&rec, 'n'};
  std::vector<std::unique_ptr<ult::Ult>> highs;
  for (int i = 0; i < kHigh; ++i) {
    highs.push_back(std::make_unique<ult::Ult>(
        i + 1, &tag_once, &th, stacks[static_cast<std::size_t>(i)].data(),
        stacks[static_cast<std::size_t>(i)].size()));
  }
  ult::Ult normal(99, &tag_once, &tn, stacks[kHigh].data(),
                  stacks[kHigh].size());
  sched.ready(&normal, ult::Lane::Normal);
  for (auto& u : highs) sched.ready(u.get(), ult::Lane::High);
  sched.run_until_quiescent();
  // After starve_limit consecutive High dispatches the Normal ULT must get
  // a slot — not wait behind the whole High backlog.
  EXPECT_EQ(rec.log, "hhnhhh");
}

namespace {
struct RunLog {
  std::vector<int> ids;  // appended only by the scheduler's owner thread
};
struct LoggedId {
  RunLog* log;
  int id;
};
void log_id(void* arg) {
  auto* t = static_cast<LoggedId*>(arg);
  t->log->ids.push_back(t->id);
}
}  // namespace

// Several producer threads ready ULTs at once. Every ready is counted
// (producers race on the counter, so a single-writer bump would lose some),
// and the drain keeps each producer's own order.
TEST(SchedulerLanes, CrossThreadReadyIsFifoAndCounted) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 256;
  constexpr int kN = kProducers * kPerProducer;
  constexpr int kRounds = 4;
  ult::Scheduler sched;
  EXPECT_FALSE(sched.run_one());  // binds the owner to this thread
  std::vector<std::vector<char>> stacks(kN, std::vector<char>(32 << 10));
  for (int round = 1; round <= kRounds; ++round) {
    RunLog log;
    std::vector<LoggedId> args(kN);
    std::vector<std::unique_ptr<ult::Ult>> ults;
    for (int i = 0; i < kN; ++i) {
      const auto si = static_cast<std::size_t>(i);
      args[si] = {&log, i};
      ults.push_back(std::make_unique<ult::Ult>(
          i, &log_id, &args[si], stacks[si].data(), stacks[si].size()));
    }
    std::atomic<int> waiting{kProducers};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) {
        }
        for (int i = 0; i < kPerProducer; ++i)
          sched.ready(ults[static_cast<std::size_t>(p * kPerProducer + i)]
                          .get());
      });
    }
    for (auto& t : producers) t.join();
    EXPECT_EQ(sched.ready_count(), static_cast<std::size_t>(kN));
    EXPECT_EQ(sched.counters().get(Ctr::SchedRemoteReadies),
              static_cast<std::uint64_t>(round * kN))
        << "round " << round;
    sched.run_until_quiescent();
    // The MPSC push stack is LIFO internally; the drain must restore each
    // producer's FIFO.
    ASSERT_EQ(log.ids.size(), static_cast<std::size_t>(kN));
    std::vector<int> next(kProducers, 0);
    for (const int id : log.ids) {
      const int p = id / kPerProducer;
      EXPECT_EQ(id % kPerProducer, next[static_cast<std::size_t>(p)]++)
          << "producer " << p;
    }
  }
}

TEST(SchedulerLanes, UnqueueRemovesWithoutRunning) {
  ult::Scheduler sched;
  Recorder rec;
  std::vector<std::vector<char>> stacks(2, std::vector<char>(32 << 10));
  Tagged ta{&rec, 'a'}, tb{&rec, 'b'};
  ult::Ult a(1, &tag_once, &ta, stacks[0].data(), stacks[0].size());
  ult::Ult b(2, &tag_once, &tb, stacks[1].data(), stacks[1].size());
  sched.ready(&a);
  sched.ready(&b, ult::Lane::Bulk);
  EXPECT_EQ(sched.ready_count(), 2u);
  EXPECT_TRUE(sched.unqueue(&b));
  EXPECT_FALSE(sched.unqueue(&b));  // already gone
  EXPECT_EQ(sched.ready_count(), 1u);
  sched.run_until_quiescent();
  EXPECT_EQ(rec.log, "a");
  EXPECT_EQ(b.state(), ult::UltState::Ready);  // untouched, still runnable
  sched.ready(&b);
  sched.run_until_quiescent();
  EXPECT_EQ(rec.log, "ab");
}

namespace {
void preempt_hog(void* arg) {
  auto* r = static_cast<Recorder*>(arg);
  r->log += 'H';
  // With quantum_us=0 the very first preempt point is over-quantum; the
  // scheduler must demote us behind the queued Normal ULT.
  ult::current_scheduler()->preempt_point();
  r->log += 'h';
}
}  // namespace

TEST(SchedulerPreempt, OverQuantumHogYieldsToWaiter) {
  ult::Scheduler::Config cfg;
  cfg.preempt = true;
  cfg.quantum_us = 0;
  ult::Scheduler sched(ult::default_context_backend(), cfg);
  Recorder rec;
  std::vector<std::vector<char>> stacks(2, std::vector<char>(32 << 10));
  Tagged tv{&rec, 'v'};
  ult::Ult hog(1, &preempt_hog, &rec, stacks[0].data(), stacks[0].size());
  ult::Ult victim(2, &tag_once, &tv, stacks[1].data(), stacks[1].size());
  sched.ready(&hog);
  sched.ready(&victim);
  sched.run_until_quiescent();
  EXPECT_EQ(rec.log, "Hvh");
  EXPECT_GE(sched.counters().get(Ctr::SchedPreemptions), 1u);
}

TEST(SchedulerPreempt, OverrunWithEmptyQueueKeepsRunning) {
  ult::Scheduler::Config cfg;
  cfg.preempt = true;
  cfg.quantum_us = 0;
  ult::Scheduler sched(ult::default_context_backend(), cfg);
  Recorder rec;
  std::vector<char> s1(32 << 10);
  ult::Ult hog(1, &preempt_hog, &rec, s1.data(), s1.size());
  sched.ready(&hog);
  sched.run_until_quiescent();
  // Nobody else is ready: the hog keeps its slice uninterrupted (an
  // overrun is recorded, no preemption).
  EXPECT_EQ(rec.log, "Hh");
  EXPECT_EQ(sched.counters().get(Ctr::SchedPreemptions), 0u);
  EXPECT_GE(sched.counters().get(Ctr::SchedQuantumOverruns), 1u);
}

TEST(SchedulerPreempt, DisarmedPointIsNoop) {
  ult::Scheduler sched;  // default config: preempt off
  Recorder rec;
  std::vector<std::vector<char>> stacks(2, std::vector<char>(32 << 10));
  Tagged tv{&rec, 'v'};
  ult::Ult hog(1, &preempt_hog, &rec, stacks[0].data(), stacks[0].size());
  ult::Ult victim(2, &tag_once, &tv, stacks[1].data(), stacks[1].size());
  sched.ready(&hog);
  sched.ready(&victim);
  sched.run_until_quiescent();
  EXPECT_EQ(rec.log, "Hhv");  // hog ran to completion despite the point
  EXPECT_EQ(sched.counters().get(Ctr::SchedPreemptions), 0u);
}

TEST(Scheduler, ManyUltsLongRun) {
  ult::Scheduler sched;
  constexpr int kUlts = 32;
  constexpr int kYields = 200;
  static int counter;
  counter = 0;
  struct Body {
    static void run(void*) {
      for (int i = 0; i < kYields; ++i) {
        ++counter;
        ult::current_scheduler()->yield();
      }
    }
  };
  std::vector<std::vector<char>> stacks(kUlts, std::vector<char>(32 << 10));
  std::vector<std::unique_ptr<ult::Ult>> ults;
  for (int i = 0; i < kUlts; ++i) {
    ults.push_back(std::make_unique<ult::Ult>(
        i, &Body::run, nullptr, stacks[i].data(), stacks[i].size()));
    sched.ready(ults.back().get());
  }
  sched.run_until_quiescent();
  EXPECT_EQ(counter, kUlts * kYields);
}

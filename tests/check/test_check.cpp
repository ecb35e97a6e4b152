// Runtime correctness-checking subsystem: deliberate collective mismatches,
// p2p type/size violations, and deadlocks must each produce a *located*
// diagnosis in warn mode and a clean fast abort in abort mode — across both
// collective algorithms and both p2p delivery paths — while clean runs
// (including legitimately-divergent gatherv counts and comm_split colors,
// and a mid-job PE failure recovery) stay free of false positives.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/wait_graph.hpp"
#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/error.hpp"
#include "util/counters.hpp"
#include "util/stats.hpp"

using namespace apv;
using mpi::Datatype;
using mpi::Env;
using mpi::Op;
using mpi::OpKind;
using util::Ctr;

namespace {

using EntryFn = void* (*)(void*);

struct CheckJob {
  int vps = 2;
  int pes = 1;
  const char* mode = "warn";   // check.mode
  const char* algo = "naive";  // coll.algo
  bool inline_on = true;       // comm.inline
  double deadlock_s = 0.0;     // check.deadlock_s
  int timeout_s = 0;           // mpi.timeout_s override (0 = default)
};

struct CheckResult {
  bool threw = false;
  std::string what;
  std::vector<check::Diagnosis> diags;
  util::CounterValues counters;
  std::vector<std::intptr_t> rets;
};

CheckResult run_check_job(EntryFn entry, const CheckJob& j) {
  img::ImageBuilder b("checkjob");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", entry);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = j.pes;
  cfg.vps = j.vps;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("check.mode", j.mode);
  cfg.options.set("coll.algo", j.algo);
  if (!j.inline_on) cfg.options.set("comm.inline", "off");
  if (j.deadlock_s > 0.0)
    cfg.options.set("check.deadlock_s", std::to_string(j.deadlock_s));
  if (j.timeout_s > 0) cfg.options.set_int("mpi.timeout_s", j.timeout_s);
  mpi::Runtime rt(image, cfg);
  CheckResult res;
  try {
    rt.run();
  } catch (const util::ApvError& e) {
    res.threw = true;
    res.what = e.what();
  }
  if (rt.checker() != nullptr) res.diags = rt.checker()->diagnoses();
  res.counters = rt.cluster().totals();
  for (int r = 0; r < j.vps; ++r)
    res.rets.push_back(reinterpret_cast<std::intptr_t>(rt.rank_return(r)));
  return res;
}

bool any_diag_contains(const CheckResult& res, const std::string& needle) {
  for (const auto& d : res.diags)
    if (d.message.find(needle) != std::string::npos) return true;
  return false;
}

#define ENV() auto* env = static_cast<Env*>(arg)

// --- deliberate-mismatch programs -------------------------------------------

// Every rank claims itself as the bcast root: roots diverge, sizes agree.
void* wrong_root_bcast_main(void* arg) {
  ENV();
  int v = env->rank() * 10;
  env->bcast(&v, 1, Datatype::Int, /*root=*/env->rank());
  return reinterpret_cast<void*>(1);
}

// Rank 0 enters allreduce while everyone else enters reduce: the collective
// colors diverge at the same (comm, seq) site.
void* mixed_allreduce_reduce_main(void* arg) {
  ENV();
  int v = env->rank(), out = -1;
  if (env->rank() == 0) {
    env->allreduce(&v, &out, 1, Datatype::Int, Op::builtin(OpKind::Sum));
  } else {
    env->reduce(&v, &out, 1, Datatype::Int, Op::builtin(OpKind::Sum), 0);
  }
  return reinterpret_cast<void*>(1);
}

// Same collective, same shape, different reduction operator. The transport
// pattern is identical on every rank, so warn mode completes (with a wrong
// answer, as real MPI would) and the diagnosis is the only evidence.
void* op_mismatch_main(void* arg) {
  ENV();
  int v = env->rank() + 1, out = 0;
  const Op op = env->rank() == 0 ? Op::builtin(OpKind::Sum)
                                 : Op::builtin(OpKind::Max);
  env->allreduce(&v, &out, 1, Datatype::Int, op);
  return reinterpret_cast<void*>(1);
}

// Rank 0 sends 8 ints; rank 1 posts a 4-int receive. In warn mode the
// truncated prefix must still arrive intact.
void* short_recv_main(void* arg) {
  ENV();
  std::intptr_t ok = 1;
  if (env->rank() == 0) {
    int data[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    env->send(data, 8, Datatype::Int, 1, /*tag=*/3);
  } else {
    int buf[4] = {-1, -1, -1, -1};
    const mpi::Status st = env->recv(buf, 4, Datatype::Int, 0, /*tag=*/3);
    if (st.count_bytes != 4 * static_cast<int>(sizeof(int))) ok = 0;
    for (int i = 0; i < 4; ++i)
      if (buf[i] != i) ok = 0;
  }
  return reinterpret_cast<void*>(ok);
}

// Rank 0 sends 4 ints; rank 1 receives 2 doubles. Byte counts agree (16),
// so only the element-size check can catch the type confusion.
void* type_mismatch_main(void* arg) {
  ENV();
  if (env->rank() == 0) {
    int data[4] = {1, 2, 3, 4};
    env->send(data, 4, Datatype::Int, 1, /*tag=*/5);
  } else {
    double buf[2] = {0, 0};
    env->recv(buf, 2, Datatype::Double, 0, /*tag=*/5);
  }
  return reinterpret_cast<void*>(1);
}

// Rank 0 contributes 2 ints to a uniform gather while everyone else sends 1:
// the per-rank block sizes disagree at the same (comm, seq) site, which only
// the gate's bytes comparison can catch (op/root/color all agree).
void* mismatched_gather_counts_main(void* arg) {
  ENV();
  const int n = env->size();
  const int mine = env->rank() == 0 ? 2 : 1;
  int v[2] = {env->rank(), env->rank()};
  std::vector<int> out(static_cast<std::size_t>(2 * n), -1);
  env->gather(v, mine, Datatype::Int, out.data(), mine, Datatype::Int,
              /*root=*/0);
  return reinterpret_cast<void*>(1);
}

// The last rank skips the barrier and finishes; everyone else is stuck in
// it forever — only the deadlock scan can name the site.
void* skip_barrier_main(void* arg) {
  ENV();
  if (env->rank() != env->size() - 1) env->barrier();
  return reinterpret_cast<void*>(1);
}

// Classic receive cycle: each of two ranks blocks receiving from the other
// before either sends.
void* recv_cycle_main(void* arg) {
  ENV();
  int v = -1;
  env->recv(&v, 1, Datatype::Int, 1 - env->rank(), /*tag=*/9);
  return reinterpret_cast<void*>(1);
}

// --- clean program: every check engaged, zero violations --------------------

void* clean_mixed_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;

  env->barrier();
  long l = 1L << me, all = 0;
  env->allreduce(&l, &all, 1, Datatype::Long, Op::builtin(OpKind::BitOr));
  if (all != (1L << n) - 1) ok = 0;
  int v = me == 2 ? 77 : 0;
  env->bcast(&v, 1, Datatype::Int, /*root=*/2 % n);
  if (v != (n > 2 ? 77 : 0)) ok = 0;

  // Ring exchange with matching declared types on both ends.
  int x = me, y = -1;
  env->sendrecv(&x, 1, Datatype::Int, (me + 1) % n, 11, &y, 1, Datatype::Int,
                (me + n - 1) % n, 11);
  if (y != (me + n - 1) % n) ok = 0;

  // Legitimately rank-divergent operands the checker must NOT flag:
  // gatherv with per-rank counts, comm_split with per-rank colors.
  std::vector<int> mine(static_cast<std::size_t>(me + 1), me);
  std::vector<int> counts(static_cast<std::size_t>(n));
  std::vector<int> displs(static_cast<std::size_t>(n));
  int total = 0;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(i)] = i + 1;
    displs[static_cast<std::size_t>(i)] = total;
    total += i + 1;
  }
  std::vector<int> gathered(static_cast<std::size_t>(total), -1);
  env->gatherv(mine.data(), me + 1, Datatype::Int, gathered.data(),
               counts.data(), displs.data(), Datatype::Int, /*root=*/0);
  if (me == 0) {
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < i + 1; ++k)
        if (gathered[static_cast<std::size_t>(displs[static_cast<std::size_t>(
                i)] + k)] != i)
          ok = 0;
  }
  const mpi::CommId sub = env->comm_split(mpi::kCommWorld, me % 2, me);
  int sv = 1, ssum = 0;
  env->allreduce(&sv, &ssum, 1, Datatype::Int, Op::builtin(OpKind::Sum), sub);
  if (ssum != env->size(sub)) ok = 0;
  env->comm_free(sub);

  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

// --- scenario 1: wrong-root bcast -------------------------------------------

TEST(CheckCollective, WrongRootBcastWarnNaive) {
  CheckJob j;
  j.mode = "warn";
  j.algo = "naive";
  j.timeout_s = 4;  // divergent roots may wedge the job; warn must not abort
  const auto res = run_check_job(&wrong_root_bcast_main, j);
  EXPECT_FALSE(res.diags.empty());
  EXPECT_TRUE(any_diag_contains(res, "root"));
  EXPECT_TRUE(any_diag_contains(res, "bcast"));
  EXPECT_GT(res.counters[Ctr::CheckCollMismatches], 0u);
}

TEST(CheckCollective, WrongRootBcastAbortNaive) {
  CheckJob j;
  j.mode = "abort";
  j.algo = "naive";
  const auto res = run_check_job(&wrong_root_bcast_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_NE(res.what.find("root"), std::string::npos) << res.what;
  EXPECT_TRUE(any_diag_contains(res, "bcast"));
}

TEST(CheckCollective, WrongRootBcastAbortHier) {
  CheckJob j;
  j.mode = "abort";
  j.algo = "hier";
  j.vps = 4;
  j.pes = 2;
  const auto res = run_check_job(&wrong_root_bcast_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_FALSE(res.diags.empty());
  EXPECT_TRUE(any_diag_contains(res, "root") ||
              any_diag_contains(res, "rendezvous"));
}

TEST(CheckCollective, WrongRootBcastWarnHier) {
  CheckJob j;
  j.mode = "warn";
  j.algo = "hier";
  j.vps = 4;
  j.pes = 2;
  j.timeout_s = 4;
  const auto res = run_check_job(&wrong_root_bcast_main, j);
  EXPECT_FALSE(res.diags.empty());
}

TEST(CheckCollective, MismatchedGatherCountsAbortNaive) {
  CheckJob j;
  j.mode = "abort";
  j.algo = "naive";
  const auto res = run_check_job(&mismatched_gather_counts_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_TRUE(any_diag_contains(res, "gather"));
  EXPECT_TRUE(any_diag_contains(res, "bytes"));
  EXPECT_GT(res.counters[Ctr::CheckCollMismatches], 0u);
}

TEST(CheckCollective, MismatchedGatherCountsAbortHier) {
  CheckJob j;
  j.mode = "abort";
  j.algo = "hier";
  j.vps = 4;
  j.pes = 2;
  const auto res = run_check_job(&mismatched_gather_counts_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_TRUE(any_diag_contains(res, "gather"));
  EXPECT_TRUE(any_diag_contains(res, "bytes"));
}

// --- scenario 2: mixed allreduce / reduce -----------------------------------

TEST(CheckCollective, MixedAllreduceReduceWarnNaive) {
  CheckJob j;
  j.mode = "warn";
  j.algo = "naive";
  j.timeout_s = 4;  // rank 0's trailing bcast phase has no peers: wedges
  const auto res = run_check_job(&mixed_allreduce_reduce_main, j);
  EXPECT_FALSE(res.diags.empty());
  EXPECT_TRUE(any_diag_contains(res, "allreduce"));
  EXPECT_TRUE(any_diag_contains(res, "reduce"));
}

TEST(CheckCollective, MixedAllreduceReduceAbortNaive) {
  CheckJob j;
  j.mode = "abort";
  j.algo = "naive";
  const auto res = run_check_job(&mixed_allreduce_reduce_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_NE(res.what.find("collective"), std::string::npos) << res.what;
}

TEST(CheckCollective, MixedAllreduceReduceAbortHier) {
  CheckJob j;
  j.mode = "abort";
  j.algo = "hier";
  j.vps = 4;
  j.pes = 2;
  const auto res = run_check_job(&mixed_allreduce_reduce_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_FALSE(res.diags.empty());
}

// Operator-only divergence completes in warn mode: the diagnosis is the
// only trace of the bug (as in a real silently-corrupting MPI run).
TEST(CheckCollective, OpMismatchWarnCompletesWithDiagnosis) {
  CheckJob j;
  j.mode = "warn";
  j.algo = "naive";
  const auto res = run_check_job(&op_mismatch_main, j);
  EXPECT_FALSE(res.threw) << res.what;
  EXPECT_TRUE(any_diag_contains(res, "op"));
  for (const auto r : res.rets) EXPECT_EQ(r, 1);
}

// --- scenario 3: short receive buffer / type confusion ----------------------

class CheckP2pPath : public ::testing::TestWithParam<bool> {};

TEST_P(CheckP2pPath, ShortRecvWarnDeliversTruncatedPrefix) {
  CheckJob j;
  j.mode = "warn";
  j.vps = 2;
  j.pes = GetParam() ? 1 : 2;  // same-PE inline vs routed mailbox
  j.inline_on = GetParam();
  const auto res = run_check_job(&short_recv_main, j);
  EXPECT_FALSE(res.threw) << res.what;
  EXPECT_TRUE(any_diag_contains(res, "truncation"));
  EXPECT_GT(res.counters[Ctr::CheckP2pTruncations], 0u);
  EXPECT_EQ(res.rets[1], 1);  // the 4-int prefix arrived bit-exact
}

TEST_P(CheckP2pPath, ShortRecvAbortFailsWithLocatedDiagnosis) {
  CheckJob j;
  j.mode = "abort";
  j.vps = 2;
  j.pes = GetParam() ? 1 : 2;
  j.inline_on = GetParam();
  const auto res = run_check_job(&short_recv_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_NE(res.what.find("truncation"), std::string::npos) << res.what;
  EXPECT_NE(res.what.find("tag=3"), std::string::npos) << res.what;
}

TEST_P(CheckP2pPath, TypeMismatchWarnRecordsElementSizes) {
  CheckJob j;
  j.mode = "warn";
  j.vps = 2;
  j.pes = GetParam() ? 1 : 2;
  j.inline_on = GetParam();
  const auto res = run_check_job(&type_mismatch_main, j);
  EXPECT_FALSE(res.threw) << res.what;
  EXPECT_TRUE(any_diag_contains(res, "element size"));
  EXPECT_GT(res.counters[Ctr::CheckP2pTypeMismatches], 0u);
}

TEST_P(CheckP2pPath, TypeMismatchAbortFails) {
  CheckJob j;
  j.mode = "abort";
  j.vps = 2;
  j.pes = GetParam() ? 1 : 2;
  j.inline_on = GetParam();
  const auto res = run_check_job(&type_mismatch_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_NE(res.what.find("element size"), std::string::npos) << res.what;
}

INSTANTIATE_TEST_SUITE_P(InlineAndRouted, CheckP2pPath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "inline" : "routed";
                         });

// --- scenario 4: one rank skips a barrier (deadlock detection) --------------

TEST(CheckDeadlock, SkipBarrierAbortNamesTheStuckCollective) {
  CheckJob j;
  j.mode = "abort";
  j.algo = "naive";
  j.vps = 3;
  j.deadlock_s = 0.3;
  j.timeout_s = 30;  // the scan must fire long before the job timeout
  const auto res = run_check_job(&skip_barrier_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_NE(res.what.find("barrier"), std::string::npos) << res.what;
  EXPECT_NE(res.what.find("deadlock"), std::string::npos) << res.what;
  EXPECT_GT(res.counters[Ctr::CheckDeadlockScans], 0u);
}

TEST(CheckDeadlock, SkipBarrierWarnRecordsAndTimesOut) {
  CheckJob j;
  j.mode = "warn";
  j.algo = "naive";
  j.vps = 3;
  j.deadlock_s = 0.3;
  j.timeout_s = 3;  // warn keeps waiting; the coarse timeout ends the job
  const auto res = run_check_job(&skip_barrier_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_TRUE(any_diag_contains(res, "barrier"));
}

TEST(CheckDeadlock, RecvCycleAbortNamesBothRanks) {
  CheckJob j;
  j.mode = "abort";
  j.vps = 2;
  j.deadlock_s = 0.3;
  j.timeout_s = 30;
  const auto res = run_check_job(&recv_cycle_main, j);
  EXPECT_TRUE(res.threw);
  EXPECT_NE(res.what.find("cycle"), std::string::npos) << res.what;
  EXPECT_NE(res.what.find("rank 0"), std::string::npos) << res.what;
  EXPECT_NE(res.what.find("rank 1"), std::string::npos) << res.what;
}

// --- clean runs: no false positives, every check engaged --------------------

class CheckCleanRun : public ::testing::TestWithParam<const char*> {};

TEST_P(CheckCleanRun, AbortModeStaysSilentOnCorrectPrograms) {
  img::ImageBuilder b("checkclean");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &clean_mixed_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 4;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("check.mode", "abort");
  cfg.options.set("coll.algo", GetParam());
  cfg.options.set_bool("util.dump_counters", true);  // finalize-dump smoke
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1);
  ASSERT_NE(rt.checker(), nullptr);
  EXPECT_EQ(rt.checker()->diagnosis_count(), 0u);
  const util::CounterValues c = rt.cluster().totals();
  EXPECT_GT(c[Ctr::CheckCollVerified], 0u);
  EXPECT_GT(c[Ctr::CheckP2pVerified], 0u);
  EXPECT_EQ(c[Ctr::CheckCollMismatches], 0u);
  EXPECT_EQ(c[Ctr::CheckP2pTruncations], 0u);
  if (std::string(GetParam()) == "hier") {
    EXPECT_GT(c[Ctr::CheckBlockCompares], 0u);
    EXPECT_EQ(c[Ctr::CheckBlockMismatches], 0u);
  }
  // The unified counter surface folds every subsystem into one map.
  const util::Counters all = rt.all_counters();
  EXPECT_GT(all.get("context_switches"), 0u);
  EXPECT_GT(all.get("check_coll_verified"), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothAlgos, CheckCleanRun,
                         ::testing::Values("hier", "naive"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Checker-off runs must not pay for any of it: no checker object, and the
// historic truncation behaviour (hard InvalidArgument error) is preserved.
TEST(CheckOff, NoCheckerAndSeedTruncationSemantics) {
  CheckJob j;
  j.mode = "off";
  const auto res = run_check_job(&short_recv_main, j);
  EXPECT_TRUE(res.threw);  // seed behaviour: truncation is an error
  EXPECT_TRUE(res.diags.empty());
  EXPECT_EQ(res.counters[Ctr::CheckP2pVerified], 0u);
}

// --- a match-time error belongs to the receiver's request -------------------

namespace {

// Rank 1 posts a 2-int receive before it hands rank 0 a token, so rank 0's
// 8 ints always meet a posted receive: the match runs in rank 0's ULT (the
// same-PE inline path) or on rank 1's PE loop thread (routed), never in
// rank 1's own ULT. The truncation is still rank 1's error, thrown by its
// wait; rank 0 returns normally.
void* posted_short_recv_main(void* arg) {
  ENV();
  int token = 0;
  if (env->rank() == 0) {
    env->recv(&token, 1, Datatype::Int, 1, /*tag=*/1);
    int data[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    env->send(data, 8, Datatype::Int, 1, /*tag=*/2);
    return reinterpret_cast<void*>(1);
  }
  int buf[2] = {-1, -1};
  mpi::Request req = env->irecv(buf, 2, Datatype::Int, 0, /*tag=*/2);
  env->send(&token, 1, Datatype::Int, 0, /*tag=*/1);
  env->wait(req);  // throws: 32 bytes into an 8-byte buffer
  return reinterpret_cast<void*>(1);
}

struct LandingCase {
  const char* name;
  const char* mode;      // check.mode
  int pes;               // 1: same PE; 2: routed between PEs
  bool inline_on;        // comm.inline (1 PE only: off routes via mailbox)
  const char* expected;  // the job's failure
};

class CheckLanding : public ::testing::TestWithParam<LandingCase> {};

}  // namespace

TEST_P(CheckLanding, TruncationFailsTheReceiverNotTheSender) {
  const LandingCase& c = GetParam();
  CheckJob j;
  j.mode = c.mode;
  j.pes = c.pes;
  j.inline_on = c.inline_on;
  j.timeout_s = 30;
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = run_check_job(&posted_short_recv_main, j);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(res.threw);
  EXPECT_NE(res.what.find(c.expected), std::string::npos) << res.what;
  EXPECT_EQ(res.rets[0], 1);  // the sender returned normally
  EXPECT_LT(took.count(), 10.0) << "the receiver waited for the job timeout";
}

INSTANTIATE_TEST_SUITE_P(
    SamePeAndRouted, CheckLanding,
    ::testing::Values(
        LandingCase{"off_inline", "off", 1, true,
                    "rank 1 failed: InvalidArgument: message truncation"},
        LandingCase{"off_same_pe_routed", "off", 1, false,
                    "rank 1 failed: InvalidArgument: message truncation"},
        LandingCase{"off_two_pes", "off", 2, true,
                    "rank 1 failed: InvalidArgument: message truncation"},
        LandingCase{"abort_inline", "abort", 1, true,
                    "rank 1 failed: CheckFailed: p2p truncation"},
        LandingCase{"abort_two_pes", "abort", 2, true,
                    "rank 1 failed: CheckFailed: p2p truncation"}),
    [](const ::testing::TestParamInfo<LandingCase>& info) {
      return std::string(info.param.name);
    });

// --- negative-path FT regression: recovery under an armed checker -----------

namespace {

void* ft_check_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  for (int it = 0; it < 3; ++it) {
    int v = me + it, sum = 0;
    env->allreduce(&v, &sum, 1, Datatype::Int, Op::builtin(OpKind::Sum));
    if (sum != n * (n - 1) / 2 + n * it) ok = 0;
    env->checkpoint_all();  // epoch it+1; PE 1 dies at epoch 2
    int x = me, y = -1;
    env->sendrecv(&x, 1, Datatype::Int, (me + 1) % n, 21, &y, 1, Datatype::Int,
                  (me + n - 1) % n, 21);
    if (y != (me + n - 1) % n) ok = 0;
  }
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

TEST(CheckFaultTolerance, RecoveryUnderAbortCheckerHasNoFalsePositives) {
  img::ImageBuilder b("checkft");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &ft_check_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 4;  // one PE per node: buddy copies live off-node
  cfg.pes_per_node = 1;
  cfg.vps = 4;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{16} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("check.mode", "abort");
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "1");
  cfg.options.set("ft.epoch", "2");
  mpi::Runtime rt(image, cfg);
  rt.run();  // an armed checker must survive the kill + adoption unharmed
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1);
  const util::CounterValues c = rt.cluster().totals();
  EXPECT_GT(c[Ctr::Recoveries], 0u);
  ASSERT_NE(rt.checker(), nullptr);
  EXPECT_EQ(rt.checker()->diagnosis_count(), 0u);
  EXPECT_GT(c[Ctr::CheckRecoveriesSeen], 0u);
  EXPECT_EQ(c[Ctr::CheckCollMismatches], 0u);
  EXPECT_GT(c[Ctr::CheckCollVerified], 0u);
}

// --- wait-graph analysis (unit) ---------------------------------------------

TEST(WaitGraph, RunnableRankMeansNoDeadlock) {
  std::vector<check::RankWait> w(2);
  w[0].rank = 0;
  w[0].blocked = true;
  w[1].rank = 1;
  w[1].blocked = false;
  EXPECT_FALSE(check::analyze_wait_graph(w).deadlock);
}

TEST(WaitGraph, CollectiveDivergencePicksSmallestGroup) {
  std::vector<check::RankWait> w(3);
  for (int i = 0; i < 3; ++i) {
    w[static_cast<std::size_t>(i)].rank = i;
    w[static_cast<std::size_t>(i)].blocked = true;
    w[static_cast<std::size_t>(i)].in_collective = true;
    w[static_cast<std::size_t>(i)].coll_comm = 0;
  }
  w[0].coll_name = "bcast";
  w[0].coll_seq = 4;
  w[1].coll_name = "bcast";
  w[1].coll_seq = 4;
  w[2].coll_name = "barrier";
  w[2].coll_seq = 4;
  const auto rep = check::analyze_wait_graph(w);
  EXPECT_TRUE(rep.deadlock);
  EXPECT_EQ(rep.kind, "collective-divergence");
  EXPECT_EQ(rep.ranks, std::vector<int>{2});
}

TEST(WaitGraph, FindsRecvCycleThroughChain) {
  // 0 -> 1 -> 2 -> 1 : the cycle is {1, 2}, entered through a tail.
  std::vector<check::RankWait> w(3);
  for (int i = 0; i < 3; ++i) {
    w[static_cast<std::size_t>(i)].rank = i;
    w[static_cast<std::size_t>(i)].blocked = true;
  }
  w[0].recv_src = 1;
  w[1].recv_src = 2;
  w[2].recv_src = 1;
  const auto rep = check::analyze_wait_graph(w);
  EXPECT_TRUE(rep.deadlock);
  EXPECT_EQ(rep.kind, "p2p-cycle");
  EXPECT_EQ(rep.ranks.size(), 2u);
}

TEST(WaitGraph, AnySourceBreaksTheCycleIntoStarvation) {
  std::vector<check::RankWait> w(2);
  w[0].rank = 0;
  w[0].blocked = true;
  w[0].recv_src = 1;
  w[1].rank = 1;
  w[1].blocked = true;
  w[1].recv_src = -1;  // kAnySource: no definite edge
  const auto rep = check::analyze_wait_graph(w);
  EXPECT_TRUE(rep.deadlock);
  EXPECT_EQ(rep.kind, "starved");
}

// Point-to-point semantics tests: matching rules, wildcards, ordering,
// nonblocking completion, probe, errors. Each test is an emulated program
// run on the full runtime (2-4 ranks, PIEglobals unless stated).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/error.hpp"
#include "util/counters.hpp"

using namespace apv;
using mpi::Datatype;
using mpi::Env;
using util::Ctr;

namespace {

using EntryFn = void* (*)(void*);

// Runs `entry` as a vps-rank job and returns per-rank intptr results;
// copies the runtime's counters out when asked.
std::vector<std::intptr_t> run_job(EntryFn entry, int vps, int pes = 1,
                                   core::Method method =
                                       core::Method::PIEglobals,
                                   util::CounterValues* counters = nullptr) {
  img::ImageBuilder b("p2pjob");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", entry);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = pes;
  cfg.vps = vps;
  cfg.method = method;
  cfg.slot_bytes = std::size_t{8} << 20;
  mpi::Runtime rt(image, cfg);
  rt.run();
  if (counters != nullptr) *counters = rt.cluster().totals();
  std::vector<std::intptr_t> out;
  for (int r = 0; r < vps; ++r)
    out.push_back(reinterpret_cast<std::intptr_t>(rt.rank_return(r)));
  return out;
}

#define ENV() auto* env = static_cast<Env*>(arg)

void* basic_roundtrip(void* arg) {
  ENV();
  if (env->rank() == 0) {
    int v = 1234;
    env->send(&v, 1, Datatype::Int, 1, 10);
    int back = 0;
    env->recv(&back, 1, Datatype::Int, 1, 11);
    return reinterpret_cast<void*>(static_cast<std::intptr_t>(back));
  }
  int v = 0;
  const mpi::Status st = env->recv(&v, 1, Datatype::Int, 0, 10);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 10);
  EXPECT_EQ(st.count(Datatype::Int), 1);
  v += 1;
  env->send(&v, 1, Datatype::Int, 0, 11);
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(v));
}

}  // namespace

TEST(P2P, BlockingRoundTrip) {
  const auto r = run_job(&basic_roundtrip, 2);
  EXPECT_EQ(r[0], 1235);
  EXPECT_EQ(r[1], 1235);
}

namespace {
constexpr int kSmallPings = 50;

// The blocking calls a rank can wait for its reply in.
enum class Park { Recv, ProbeRecv, IrecvWaitany };

template <Park kPark>
void recv_one(Env* env, int* v, int peer, int tag) {
  if constexpr (kPark == Park::IrecvWaitany) {
    mpi::Request req = env->irecv(v, 1, Datatype::Int, peer, tag);
    mpi::Status st;
    EXPECT_EQ(env->waitany(1, &req, &st), 0);
    return;
  }
  if constexpr (kPark == Park::ProbeRecv) env->probe(peer, tag);
  env->recv(v, 1, Datatype::Int, peer, tag);
}

template <Park kPark>
void* small_ping_pong(void* arg) {
  ENV();
  const int peer = 1 - env->rank();
  int v = 0;
  for (int i = 0; i < kSmallPings; ++i) {
    if (env->rank() == 0) {
      env->send(&v, 1, Datatype::Int, peer, 12);
      recv_one<kPark>(env, &v, peer, 13);
    } else {
      recv_one<kPark>(env, &v, peer, 12);
      ++v;
      env->send(&v, 1, Datatype::Int, peer, 13);
    }
  }
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(v));
}
}  // namespace

// A small inter-PE message waits in its PE's aggregation bin. The sender
// blocking on the reply ships it: rank 0 blocks after every ping, so each
// one leaves by a block flush rather than by its PE going idle — whichever
// blocking call it waits in.
TEST(P2P, BlockingSenderFlushesItsBins) {
  const std::pair<const char*, EntryFn> programs[] = {
      {"recv", &small_ping_pong<Park::Recv>},
      {"probe+recv", &small_ping_pong<Park::ProbeRecv>},
      {"irecv+waitany", &small_ping_pong<Park::IrecvWaitany>},
  };
  for (const auto& [name, entry] : programs) {
    SCOPED_TRACE(name);
    util::CounterValues c;
    const auto r = run_job(entry, 2, 2, core::Method::PIEglobals, &c);
    EXPECT_EQ(r[0], kSmallPings);
    EXPECT_EQ(r[1], kSmallPings);
    EXPECT_GE(c[Ctr::CommFlushesBlock],
              static_cast<std::uint64_t>(kSmallPings));
  }
}

namespace {
void* wildcard_recv(void* arg) {
  ENV();
  if (env->rank() == 0) {
    int sum = 0;
    for (int i = 1; i < env->size(); ++i) {
      int v = 0;
      const mpi::Status st =
          env->recv(&v, 1, Datatype::Int, mpi::kAnySource, mpi::kAnyTag);
      EXPECT_EQ(st.tag, 100 + st.source);
      sum += v;
    }
    return reinterpret_cast<void*>(static_cast<std::intptr_t>(sum));
  }
  int v = env->rank() * env->rank();
  env->send(&v, 1, Datatype::Int, 0, 100 + env->rank());
  return nullptr;
}
}  // namespace

TEST(P2P, WildcardSourceAndTag) {
  const auto r = run_job(&wildcard_recv, 4);
  EXPECT_EQ(r[0], 1 + 4 + 9);
}

namespace {
void* ordering_main(void* arg) {
  ENV();
  if (env->rank() == 0) {
    for (int i = 0; i < 50; ++i) env->send(&i, 1, Datatype::Int, 1, 5);
    return nullptr;
  }
  // Non-overtaking: same (src, tag, comm) messages arrive in send order.
  std::intptr_t ok = 1;
  for (int i = 0; i < 50; ++i) {
    int v = -1;
    env->recv(&v, 1, Datatype::Int, 0, 5);
    if (v != i) ok = 0;
  }
  return reinterpret_cast<void*>(ok);
}
}  // namespace

TEST(P2P, NonOvertakingOrder) {
  const auto r = run_job(&ordering_main, 2);
  EXPECT_EQ(r[1], 1);
}

namespace {
void* unexpected_then_post(void* arg) {
  ENV();
  if (env->rank() == 0) {
    int v = 77;
    env->send(&v, 1, Datatype::Int, 1, 3);
    env->barrier();
    return nullptr;
  }
  // Let the message become "unexpected" before posting the receive.
  env->barrier();
  int v = 0;
  env->recv(&v, 1, Datatype::Int, 0, 3);
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(v));
}
}  // namespace

TEST(P2P, UnexpectedMessageBuffered) {
  const auto r = run_job(&unexpected_then_post, 2);
  EXPECT_EQ(r[1], 77);
}

namespace {
void* nonblocking_main(void* arg) {
  ENV();
  if (env->rank() == 0) {
    int vals[4] = {10, 20, 30, 40};
    mpi::Request reqs[4];
    for (int i = 0; i < 4; ++i)
      reqs[i] = env->isend(&vals[i], 1, Datatype::Int, 1, i);
    env->waitall(4, reqs);
    return nullptr;
  }
  int got[4] = {0, 0, 0, 0};
  mpi::Request reqs[4];
  // Post out of order; match by tag.
  for (int i = 3; i >= 0; --i)
    reqs[i] = env->irecv(&got[i], 1, Datatype::Int, 0, i);
  env->waitall(4, reqs);
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(
      got[0] + got[1] * 2 + got[2] * 3 + got[3] * 4));
}
}  // namespace

TEST(P2P, NonblockingOutOfOrderTags) {
  const auto r = run_job(&nonblocking_main, 2);
  EXPECT_EQ(r[1], 10 + 40 + 90 + 160);
}

namespace {
void* waitany_main(void* arg) {
  ENV();
  if (env->rank() == 0) {
    env->barrier();
    int v = 5;
    env->send(&v, 1, Datatype::Int, 1, 2);  // first, only tag 2 arrives
    env->barrier();
    v = 9;
    env->send(&v, 1, Datatype::Int, 1, 1);  // then complete the other
    return nullptr;
  }
  int a = 0, b = 0;
  mpi::Request reqs[2] = {env->irecv(&a, 1, Datatype::Int, 0, 1),
                          env->irecv(&b, 1, Datatype::Int, 0, 2)};
  env->barrier();
  mpi::Status st;
  const int idx = env->waitany(2, reqs, &st);
  EXPECT_EQ(idx, 1);
  EXPECT_EQ(b, 5);
  EXPECT_EQ(reqs[1], mpi::kRequestNull);
  EXPECT_NE(reqs[0], mpi::kRequestNull);  // still pending
  env->barrier();
  env->wait(reqs[0]);
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(a + b));
}
}  // namespace

TEST(P2P, WaitanyPicksTheCompletedRequest) {
  const auto r = run_job(&waitany_main, 2);
  EXPECT_EQ(r[1], 14);
}

namespace {
void* test_and_probe_main(void* arg) {
  ENV();
  if (env->rank() == 0) {
    env->barrier();
    double v = 2.5;
    env->send(&v, 1, Datatype::Double, 1, 8);
    return nullptr;
  }
  mpi::Status st;
  EXPECT_FALSE(env->iprobe(0, 8, mpi::kCommWorld, &st));
  env->barrier();
  // Blocking probe sees the message without consuming it.
  st = env->probe(0, 8);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.count(Datatype::Double), 1);
  double v = 0.0;
  mpi::Request req = env->irecv(&v, 1, Datatype::Double, 0, 8);
  mpi::Status st2;
  EXPECT_TRUE(env->test(req, &st2));  // already matched from unexpected
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(v * 4));
}
}  // namespace

TEST(P2P, TestAndProbe) {
  const auto r = run_job(&test_and_probe_main, 2);
  EXPECT_EQ(r[1], 10);
}

namespace {
void* sendrecv_main(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  int token = me;
  int incoming = -1;
  // Ring shift by one, no deadlock thanks to eager sends.
  env->sendrecv(&token, 1, Datatype::Int, (me + 1) % n, 1, &incoming, 1,
                Datatype::Int, (me - 1 + n) % n, 1);
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(incoming));
}
}  // namespace

TEST(P2P, SendrecvRingShift) {
  const auto r = run_job(&sendrecv_main, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], (i + 3) % 4);
}

namespace {
void* self_send_main(void* arg) {
  ENV();
  int v = 321;
  env->send(&v, 1, Datatype::Int, env->rank(), 0);
  int got = 0;
  env->recv(&got, 1, Datatype::Int, env->rank(), 0);
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(got));
}
}  // namespace

TEST(P2P, SelfSendCompletes) {
  const auto r = run_job(&self_send_main, 2);
  EXPECT_EQ(r[0], 321);
  EXPECT_EQ(r[1], 321);
}

namespace {
void* truncation_main(void* arg) {
  ENV();
  if (env->rank() == 0) {
    int big[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    env->send(big, 8, Datatype::Int, 1, 1);
    return nullptr;
  }
  int tiny[2];
  env->recv(tiny, 2, Datatype::Int, 0, 1);  // must throw: 32 bytes into 8
  return nullptr;
}
}  // namespace

TEST(P2P, TruncationIsAnError) {
  img::ImageBuilder b("trunc");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &truncation_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.vps = 2;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{8} << 20;
  mpi::Runtime rt(image, cfg);
  EXPECT_THROW(rt.run(), util::ApvError);
}

namespace {
// Runs `entry` as a vps-rank job with a 3 s job timeout (and check.mode set
// when `check_mode` is given); returns the job's failure, "" if none.
std::string job_failure(EntryFn entry, int vps,
                        const char* check_mode = nullptr) {
  img::ImageBuilder b("p2pfail");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", entry);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.vps = vps;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("mpi.timeout_s", "3");
  if (check_mode != nullptr) cfg.options.set("check.mode", check_mode);
  mpi::Runtime rt(image, cfg);
  try {
    rt.run();
  } catch (const util::ApvError& e) {
    return e.what();
  }
  return "";
}

constexpr int kInternalSpaceTag = 1 << 30;

void* bad_send_tag_main(void* arg) {
  ENV();
  int v = 0;
  env->send(&v, 1, Datatype::Int, env->rank(), kInternalSpaceTag);
  return nullptr;
}

void* bad_recv_tag_main(void* arg) {
  ENV();
  int v = 0;
  env->recv(&v, 1, Datatype::Int, env->rank(), kInternalSpaceTag);
  return nullptr;
}

void* bad_irecv_tag_main(void* arg) {
  ENV();
  int v = 0;
  mpi::Request req =
      env->irecv(&v, 1, Datatype::Int, env->rank(), kInternalSpaceTag);
  env->wait(req);
  return nullptr;
}

void* bad_iprobe_tag_main(void* arg) {
  ENV();
  mpi::Status st;
  env->iprobe(env->rank(), kInternalSpaceTag, mpi::kCommWorld, &st);
  return nullptr;
}
}  // namespace

// A user receive or probe in the internal tag space could take collective
// and control traffic, so every p2p entry refuses an internal tag.
TEST(P2P, UserTagsCannotEnterInternalSpace) {
  for (const EntryFn entry : {&bad_send_tag_main, &bad_recv_tag_main,
                              &bad_irecv_tag_main, &bad_iprobe_tag_main}) {
    const std::string failure = job_failure(entry, 1);
    EXPECT_NE(failure.find("InvalidArgument"), std::string::npos) << failure;
  }
}

namespace {
// A handle past every request this rank allocated, and a negative one that
// is not kRequestNull; and a negative request count.
#define BAD_HANDLE(handle, call) \
  +[](void* arg) -> void* {      \
    ENV();                       \
    mpi::Request req = handle;   \
    env->call;                   \
    return nullptr;              \
  }

constexpr const char* kBadHandle = "InvalidArgument: invalid request handle";
constexpr const char* kBadCount = "InvalidArgument: negative count";
const std::pair<EntryFn, const char*> kBadHandleCalls[] = {
    {BAD_HANDLE(1000, test(req)), kBadHandle},
    {BAD_HANDLE(-5, test(req)), kBadHandle},
    {BAD_HANDLE(1000, waitany(1, &req, nullptr)), kBadHandle},
    {BAD_HANDLE(-5, waitany(1, &req, nullptr)), kBadHandle},
    {BAD_HANDLE(1000, wait(req)), kBadHandle},
    {BAD_HANDLE(-5, wait(req)), kBadHandle},
    {BAD_HANDLE(mpi::kRequestNull, waitall(-1, &req)), kBadCount},
    {BAD_HANDLE(mpi::kRequestNull, waitany(-1, &req, nullptr)), kBadCount},
};
#undef BAD_HANDLE
}  // namespace

// wait, test and waitany check a handle the same way before they read the
// request it names, and waitall and waitany refuse a negative count.
TEST(P2P, InvalidRequestHandleIsInvalidArgument) {
  for (const auto& [entry, error] : kBadHandleCalls) {
    const std::string failure = job_failure(entry, 1);
    EXPECT_NE(failure.find(error), std::string::npos) << failure;
  }
}

namespace {
void* recv_from_outside_main(void* arg) {
  ENV();
  if (env->rank() == 1) {
    int v = 0;
    env->recv(&v, 1, Datatype::Int, /*src=*/5, 0);  // 2-rank world
  }
  return nullptr;
}
}  // namespace

// The source is translated to a world rank when the receive is posted, so
// a rank outside the communicator is refused at once, checker or not.
TEST(P2P, ReceiveFromOutsideTheCommunicatorThrows) {
  const std::string failure = job_failure(&recv_from_outside_main, 2, "off");
  EXPECT_NE(failure.find("InvalidArgument"), std::string::npos) << failure;
}

namespace {
void* cross_pe_stress(void* arg) {
  ENV();
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t sum = 0;
  for (int round = 0; round < 30; ++round) {
    const int partner = (me + 1 + round % (n - 1)) % n;
    int out = me * 1000 + round;
    int in = -1;
    env->sendrecv(&out, 1, Datatype::Int, partner, round, &in, 1,
                  Datatype::Int, mpi::kAnySource, round);
    sum += in;
  }
  env->barrier();
  return reinterpret_cast<void*>(sum);
}
}  // namespace

TEST(P2P, CrossPeStressSmp) {
  // 8 ranks over 2 nodes x 2 PEs: exercises inter-PE and inter-node paths.
  const auto r = run_job(&cross_pe_stress, 8, 2);
  std::intptr_t total = 0;
  for (auto v : r) total += v;
  EXPECT_GT(total, 0);
}

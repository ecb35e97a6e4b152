// Same-PE inline delivery: FIFO ordering under mixed inline / aggregated
// remote traffic with a mid-stream receiver migration, bit-identical
// payloads, and the comm.inline=off escape hatch reproducing the routed
// path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/counters.hpp"

using namespace apv;
using mpi::Datatype;
using mpi::Env;
using util::Ctr;

namespace {

using EntryFn = void* (*)(void*);

// Stream shape: two senders (one co-resident with the receiver, one
// remote) each push kMsgs framed messages; the receiver consumes them with
// wildcard receives and migrates to the remote sender's PE mid-stream,
// flipping which sender is inline.
constexpr int kMsgs = 64;
constexpr int kSenders = 2;
constexpr int kSenderRanks[kSenders] = {1, 4};

// Message i from sender s: a 4-int header (sender, seq) then a deterministic
// byte pattern; sizes straddle the largest payload that fits an aggregation
// bin (16,352 B) so the remote stream mixes bundled and direct messages.
constexpr int stream_bytes(int i) { return 16 + (i % 5) * 5000; }
constexpr int kMaxStreamBytes = stream_bytes(4);
unsigned char stream_byte(int s, int i, int j) {
  return static_cast<unsigned char>((s * 31 + i * 7 + j) & 0xff);
}

void fill_stream_msg(std::vector<unsigned char>& buf, int s, int i) {
  const int bytes = stream_bytes(i);
  buf.resize(static_cast<std::size_t>(bytes));
  int hdr[2] = {s, i};
  std::memcpy(buf.data(), hdr, sizeof hdr);
  for (int j = static_cast<int>(sizeof hdr); j < bytes; ++j)
    buf[static_cast<std::size_t>(j)] = stream_byte(s, i, j);
}

void* fifo_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  std::intptr_t ok = 1;

  bool sender = false;
  for (const int s : kSenderRanks) sender = sender || s == me;

  if (me == 0) {
    // Receiver: consume both streams with wildcard receives, checking
    // per-sender order and every payload byte. Migrate to the remote
    // sender's PE a third of the way through, once both senders have been
    // heard from: the co-resident one has then sent while sharing this PE,
    // however the PE threads happened to be scheduled.
    std::vector<unsigned char> buf(kMaxStreamBytes);
    std::vector<unsigned char> want;
    int next_seq[kSenders] = {0, 0};
    const int total = kSenders * kMsgs;
    bool migrated = env->num_pes() == 1;
    for (int got = 0; got < total; ++got) {
      if (!migrated && got >= total / 3 && next_seq[0] > 0 &&
          next_seq[1] > 0) {
        migrated = true;
        env->migrate_to((env->my_pe() + 1) % env->num_pes());
      }
      const mpi::Status st =
          env->recv(buf.data(), static_cast<int>(buf.size()), Datatype::Byte,
                    mpi::kAnySource, /*tag=*/7);
      int hdr[2];
      std::memcpy(hdr, buf.data(), sizeof hdr);
      const int s = hdr[0], seq = hdr[1];
      if (s < 0 || s >= kSenders || st.source != kSenderRanks[s]) {
        ok = 0;
        break;
      }
      // Per-sender FIFO: sequence numbers arrive strictly in send order.
      if (seq != next_seq[s]++) {
        ok = 0;
        break;
      }
      fill_stream_msg(want, s, seq);
      if (st.count_bytes != static_cast<int>(want.size()) ||
          std::memcmp(buf.data(), want.data(), want.size()) != 0) {
        ok = 0;
        break;
      }
    }
  } else if (sender) {
    const int s = me == kSenderRanks[0] ? 0 : 1;
    std::vector<unsigned char> buf;
    for (int i = 0; i < kMsgs; ++i) {
      fill_stream_msg(buf, s, i);
      env->send(buf.data(), static_cast<int>(buf.size()), Datatype::Byte, 0,
                /*tag=*/7);
      if (i % 9 == 0) env->yield();
    }
  }
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

// Co-resident ping-pong that must ride the inline path end to end.
void* inline_pingpong_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  int v = 0;
  std::intptr_t ok = 1;
  for (int i = 0; i < 100; ++i) {
    if (me == 0) {
      v = i * 3 + 1;
      env->send(&v, 1, Datatype::Int, 1, 5);
      env->recv(&v, 1, Datatype::Int, 1, 6);
      if (v != i * 3 + 2) ok = 0;
    } else {
      env->recv(&v, 1, Datatype::Int, 0, 5);
      ++v;
      env->send(&v, 1, Datatype::Int, 0, 6);
    }
  }
  return reinterpret_cast<void*>(ok);
}

// Returns {rank 0's result, inline hits + misses}. sched.* options left
// unpinned come from the environment (APV_SCHED_STEAL, APV_SCHED_PREEMPT).
std::vector<std::intptr_t> run_fifo_job(EntryFn entry, int vps, int pes,
                                        bool inline_on,
                                        bool pin_steal_off = false) {
  img::ImageBuilder b("inlinejob");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", entry);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = pes;
  cfg.vps = vps;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  if (!inline_on) cfg.options.set("comm.inline", "off");
  if (pin_steal_off) cfg.options.set("sched.steal", "off");
  mpi::Runtime rt(image, cfg);
  rt.run();
  std::vector<std::intptr_t> out;
  out.push_back(reinterpret_cast<std::intptr_t>(rt.rank_return(0)));
  const util::CounterValues v = rt.cluster().totals();
  out.push_back(
      static_cast<std::intptr_t>(v[Ctr::InlineHits] + v[Ctr::InlineMisses]));
  return out;
}

}  // namespace

// The tentpole FIFO guarantee: per-sender order and bit-identical payloads
// survive the mix of inline delivery, aggregated remote messages, and a
// receiver migration that flips which sender is co-resident.
TEST(InlineDelivery, FifoAcrossMigrationAndAggregation) {
  // 8 ranks block-mapped on 2 PEs: sender 1 starts co-resident with the
  // receiver, sender 4 starts remote; the migration swaps the roles.
  EXPECT_EQ(run_fifo_job(&fifo_main, 8, 2, /*inline_on=*/true)[0], 1);
  // A steal can move the co-resident sender off the receiver's PE before
  // it sends: that run keeps FIFO but never goes inline. Whether the
  // inline path engages is therefore checked on a run without steals.
  const auto pinned = run_fifo_job(&fifo_main, 8, 2, /*inline_on=*/true,
                                   /*pin_steal_off=*/true);
  EXPECT_EQ(pinned[0], 1);
  EXPECT_GT(pinned[1], 0);  // the inline path actually engaged
}

namespace {

// Forward-and-hold shape, on 1 node x 3 PEs with no steals and no
// preemption (ranks 0 and 1 on PE 0, rank 2 on PE 1, rank 3 on PE 2).
// Sender 3 bins kRouted small sends to receiver 0 on PE 0 and keeps its
// bin unflushed by spinning. Receiver 0 then moves to PE 1, and rank 1
// spins on PE 0 so that PE 0 drains nothing. Sender 3 moves to PE 1 too,
// which flushes its bin into PE 0's mailbox, and sends kInline more
// messages inline: those must be held behind the routed ones, which PE 0
// forwards to PE 1 once rank 1 stops spinning.
constexpr int kRouted = 3;
constexpr int kInline = 3;
constexpr int kHoldSender = 3;

std::atomic<int> g_routed_sent{0};
std::atomic<int> g_receiver_left{0};
std::atomic<int> g_old_pe_spinning{0};
std::atomic<int> g_release{0};

// Spins without yielding, so the calling rank's PE runs nothing else.
// False if `flag` stayed 0 for 30 s.
bool spin_until(const std::atomic<int>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (flag.load(std::memory_order_acquire) == 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
  }
  return true;
}

void* forward_hold_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  std::intptr_t ok = 1;
  if (me == kHoldSender) {
    for (int i = 0; i < kRouted; ++i)
      env->send(&i, 1, Datatype::Int, 0, /*tag=*/7);
    g_routed_sent.store(1, std::memory_order_release);
    if (!spin_until(g_old_pe_spinning)) ok = 0;
    env->migrate_to(1);  // flushes PE 2's bins into PE 0's mailbox
    for (int i = kRouted; i < kRouted + kInline; ++i)
      env->send(&i, 1, Datatype::Int, 0, /*tag=*/7);
    g_release.store(1, std::memory_order_release);
  } else if (me == 0) {
    if (!spin_until(g_routed_sent)) ok = 0;
    g_receiver_left.store(1, std::memory_order_release);
    env->migrate_to(1);
    for (int i = 0; i < kRouted + kInline; ++i) {
      int v = -1;
      const mpi::Status st =
          env->recv(&v, 1, Datatype::Int, mpi::kAnySource, /*tag=*/7);
      if (st.source != kHoldSender || v != i) ok = 0;  // per-sender FIFO
    }
  } else if (me == 1) {
    // The receiver's migration runs as its park continuation before this
    // rank is dispatched again, so the flag means it has left PE 0.
    while (g_receiver_left.load(std::memory_order_acquire) == 0) env->yield();
    g_old_pe_spinning.store(1, std::memory_order_release);
    if (!spin_until(g_release)) ok = 0;
  }
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

// A routed message still in flight to the receiver's old PE is forwarded,
// and the sender's later inline sends wait for it in the hold: per-sender
// FIFO across a move within a node, with both mechanisms forced to engage.
TEST(InlineDelivery, FifoForwardAndHoldAcrossMoveWithinNode) {
  g_routed_sent = 0;
  g_receiver_left = 0;
  g_old_pe_spinning = 0;
  g_release = 0;
  img::ImageBuilder b("fwdhold");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &forward_hold_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 3;
  cfg.vps = 4;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("sched.steal", "off");
  cfg.options.set("sched.preempt", "off");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_GE(v[Ctr::Forwards], 1u);
  EXPECT_GE(v[Ctr::P2pHeld], 1u);
  EXPECT_EQ(v[Ctr::MigrationBytes], 0u);
}

// Escape hatch: comm.inline=off must reproduce the seed's routed-only
// behaviour, bit for bit, with the fast path fully disengaged.
TEST(InlineDelivery, FifoWithInlineDisabledMatchesSeed) {
  const auto res = run_fifo_job(&fifo_main, 8, 2, /*inline_on=*/false);
  EXPECT_EQ(res[0], 1);
  EXPECT_EQ(res[1], 0);
}

namespace {

// Two ranks on one PE ping-pong; returns the job's counters. A null
// `inline_opt` leaves comm.inline at its default.
util::CounterValues same_pe_pingpong(const char* inline_opt) {
  img::ImageBuilder b("inlinepp");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &inline_pingpong_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{8} << 20;
  if (inline_opt != nullptr) cfg.options.set("comm.inline", inline_opt);
  mpi::Runtime rt(image, cfg);
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(0)), 1);
  return rt.cluster().totals();
}

}  // namespace

// Pure same-PE ping-pong: every send after the first posted receive should
// hit the inline path (posted-receive match, no unexpected queueing).
TEST(InlineDelivery, SamePePingPongUsesInlinePath) {
  const util::CounterValues v = same_pe_pingpong(nullptr);
  EXPECT_GT(v[Ctr::InlineHits] + v[Ctr::InlineMisses], 0u);
  EXPECT_EQ(v[Ctr::P2pHeld], 0u);
}

// Every on spelling keeps the inline path, not only the literal "on".
TEST(InlineDelivery, TrueSpellingKeepsInlinePath) {
  EXPECT_GT(same_pe_pingpong("true")[Ctr::InlineHits], 0u);
}

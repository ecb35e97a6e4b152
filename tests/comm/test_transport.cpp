// Cluster transport tests: small-message aggregation (bundling, FIFO across
// flush boundaries, per-message counters), dead-letter flooding during
// recovery, and the zero-copy acceptance counters on the routed (intra- and
// inter-PE) and migration paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "comm/cluster.hpp"
#include "image/image.hpp"
#include "mpi/runtime.hpp"

using namespace apv;
using comm::Message;
using util::Ctr;

namespace {

// Waits until `pred` holds or ~10 s pass.
template <typename Pred>
bool wait_for(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

// Kicks PE0 with a control message; PE0's dispatcher then sends a stream of
// small messages (and a few too big for a bin in between) to PE1. Verifies
// that the stream is bundled, that delivery order survives the flush
// boundaries, and that the counters account per-message.
TEST(Aggregation, BundlesSmallMessagesPreservingOrder) {
  constexpr int kMessages = 200;
  comm::Cluster::Config cc;
  cc.nodes = 1;
  cc.pes_per_node = 2;
  comm::Cluster cluster(cc);

  std::atomic<int> received{0};
  std::atomic<bool> in_order{true};
  cluster.pe(1).set_dispatcher([&](Message&& m) {
    if (m.kind != Message::Kind::UserData) return;
    const int expect = received.fetch_add(1);
    if (m.seq != static_cast<std::uint64_t>(expect)) in_order.store(false);
    // Payload integrity: first byte tags the sequence.
    if (!m.payload.empty() &&
        m.payload.data()[0] != static_cast<std::byte>(m.seq)) {
      in_order.store(false);
    }
  });
  cluster.pe(0).set_dispatcher([&](Message&& m) {
    if (m.kind != Message::Kind::Control) return;
    for (int i = 0; i < kMessages; ++i) {
      Message u;
      u.kind = Message::Kind::UserData;
      u.dst_pe = 1;
      u.dst_rank = 0;
      u.tag = 5;
      u.seq = static_cast<std::uint64_t>(i);
      // Every 16th message cannot fit an aggregation bin: it travels alone
      // and must flush the bin first so order holds across the boundary.
      const std::size_t bytes = (i % 16 == 15) ? 20480 : 24;
      u.payload = comm::Payload::acquire(bytes);
      u.payload.data()[0] = static_cast<std::byte>(i);
      cluster.send(std::move(u));
    }
  });
  cluster.start();
  Message kick;
  kick.kind = Message::Kind::Control;
  kick.dst_pe = 0;
  cluster.send(std::move(kick));

  ASSERT_TRUE(wait_for([&] { return received.load() == kMessages; }));
  EXPECT_TRUE(in_order.load());
  const util::CounterBlock& c = cluster.pe(0).counters();
  EXPECT_EQ(c.get(Ctr::CommSends), static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(c.get(Ctr::CommAggregated), 0u);
  EXPECT_GT(c.get(Ctr::CommAggEnvelopes), 0u);
  // bundling actually bundled
  EXPECT_LT(c.get(Ctr::CommAggEnvelopes), c.get(Ctr::CommAggregated));
  // the large messages forced it
  EXPECT_GT(c.get(Ctr::CommFlushesOrder), 0u);
  // Fewer envelopes crossed the mailbox than logical messages were sent.
  std::uint64_t posts = 0;
  for (int p = 0; p < cluster.num_pes(); ++p) {
    const comm::Mailbox& mb = cluster.pe(p).mailbox();
    posts += mb.ring_pushes() + mb.overflow_pushes();
  }
  EXPECT_LT(posts, static_cast<std::uint64_t>(kMessages));
  cluster.stop_and_join();
}

// Satellite regression: flood the dead-letter queue from several threads
// while recovery re-homes the rank and flushes concurrently. Every message
// must be delivered exactly once — no loss, no duplication.
TEST(DeadLetter, FloodDuringRecoveryNoLossNoDuplication) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 400;
  comm::Cluster::Config cc;
  cc.nodes = 2;
  cc.pes_per_node = 1;
  comm::Cluster cluster(cc);
  std::mutex seen_mutex;
  std::set<std::uint64_t> seen;
  std::atomic<int> delivered{0};
  std::atomic<int> duplicates{0};
  for (int pe = 0; pe < 2; ++pe) {
    cluster.pe(pe).set_dispatcher([&](Message&& m) {
      if (m.kind != Message::Kind::UserData || m.tag != 7) return;
      std::lock_guard<std::mutex> lock(seen_mutex);
      if (!seen.insert(m.seq).second) duplicates.fetch_add(1);
      delivered.fetch_add(1);
    });
  }
  const comm::PeId initial[] = {0, 1};
  cluster.places().seed(initial);
  cluster.start();
  cluster.places().park(1, 1);  // rank 1's place: awaiting adoption on PE 1
  cluster.fail_pe(1);

  // A flush while the rank still maps to the dead PE delivers nothing and
  // re-parks the whole queue.
  Message probe;
  probe.kind = Message::Kind::UserData;
  probe.src_pe = 0;
  probe.dst_pe = 1;
  probe.dst_rank = 1;
  probe.tag = 7;
  probe.seq = 999999;
  cluster.send(std::move(probe));
  EXPECT_EQ(cluster.flush_dead_letters(), 0u);
  EXPECT_EQ(cluster.dead_letter_count(), 1u);

  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&cluster, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Message u;
        u.kind = Message::Kind::UserData;
        u.src_pe = 0;
        u.dst_pe = 1;
        u.dst_rank = 1;
        u.tag = 7;
        u.seq = static_cast<std::uint64_t>(t) * 100000 + i;
        u.payload = comm::Payload::acquire(16);
        cluster.send(std::move(u));
      }
    });
  }

  // Re-home mid-flood, then keep flushing until the queue drains: late
  // senders race the flush loop in both directions.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(cluster.places().rehome(1, 0));
  cluster.places().arrive(0, 1, [] {}, [](Message&&) {});  // the adoption
  for (auto& t : senders) t.join();
  while (cluster.dead_letter_count() > 0) cluster.flush_dead_letters();

  const int expected = kThreads * kPerThread + 1;  // + the parked probe
  ASSERT_TRUE(wait_for([&] { return delivered.load() >= expected; }));
  EXPECT_EQ(delivered.load(), expected);
  EXPECT_EQ(duplicates.load(), 0);
  EXPECT_EQ(static_cast<int>(seen.size()), expected);
  EXPECT_EQ(cluster.dead_letter_count(), 0u);
  cluster.stop_and_join();
}

// --- zero-copy acceptance counters ------------------------------------------

namespace {

// 100 round trips of `N`-byte messages between ranks 0 and 1.
template <std::size_t N>
void* pingpong(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  char buf[N];
  // Blocking ping-pong: each round's buffers are released before the next
  // acquire, so the pool's recycling actually engages.
  if (env->rank() == 0) {
    std::memset(buf, 0x2a, sizeof buf);
    for (int i = 0; i < 100; ++i) {
      env->send(buf, sizeof buf, mpi::Datatype::Byte, 1, 1);
      env->recv(buf, sizeof buf, mpi::Datatype::Byte, 1, 2);
    }
    return nullptr;
  }
  std::intptr_t ok = 1;
  for (int i = 0; i < 100; ++i) {
    std::memset(buf, 0, sizeof buf);
    env->recv(buf, sizeof buf, mpi::Datatype::Byte, 0, 1);
    if (buf[0] != 0x2a || buf[N - 1] != 0x2a) ok = 0;
    env->send(buf, sizeof buf, mpi::Datatype::Byte, 0, 2);
  }
  return reinterpret_cast<void*>(ok);
}

void* migrate_roundtrip(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  int* data = env->rank_alloc_array<int>(4096);
  for (int i = 0; i < 4096; ++i) data[i] = env->rank() * 100000 + i;
  env->migrate_to((env->my_pe() + 1) % env->num_pes());
  std::intptr_t ok = 1;
  for (int i = 0; i < 4096; ++i) {
    if (data[i] != env->rank() * 100000 + i) ok = 0;
  }
  env->rank_free(data);
  return reinterpret_cast<void*>(ok);
}

mpi::RuntimeConfig transport_cfg(int vps, int pes, core::Method method) {
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = pes;
  cfg.vps = vps;
  cfg.method = method;
  cfg.slot_bytes = std::size_t{8} << 20;
  return cfg;
}

img::ProgramImage entry_image(const char* name, img::NativeFn fn) {
  img::ImageBuilder b(name);
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", fn);
  return b.build();
}

// Send sizes on both sides of the hipri cutoff (256 B) and of the largest
// payload that fits an aggregation bin (16,352 B: up to it, sends travel
// bundled), plus class-sized sends.
constexpr std::size_t kEdgeSizes[] = {0,   1,   255, 256,  257,   511,
                                      512, 513, 4096, 16352, 16353};
constexpr int kEdgePasses = 20;

std::byte edge_byte(int n, std::size_t i) {
  return static_cast<std::byte>(
      (static_cast<std::size_t>(n) * 131 + i * 7 + 1) & 0xff);
}

// Rank 0 streams kEdgePasses passes of kEdgeSizes to rank 1, which checks
// each message's size and every byte, in send order.
void* size_edge_stream(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  std::vector<std::byte> buf(*std::max_element(std::begin(kEdgeSizes),
                                               std::end(kEdgeSizes)));
  std::intptr_t ok = 1;
  int n = 0;
  for (int pass = 0; pass < kEdgePasses; ++pass) {
    for (const std::size_t bytes : kEdgeSizes) {
      const int count = static_cast<int>(bytes);
      if (env->rank() == 0) {
        for (std::size_t i = 0; i < bytes; ++i) buf[i] = edge_byte(n, i);
        env->send(buf.data(), count, mpi::Datatype::Byte, 1, 3);
      } else {
        std::fill(buf.begin(), buf.end(), std::byte{0xee});
        const mpi::Status st =
            env->recv(buf.data(), static_cast<int>(buf.size()),
                      mpi::Datatype::Byte, 0, 3);
        if (st.count_bytes != count) ok = 0;
        for (std::size_t i = 0; i < bytes; ++i) {
          if (buf[i] != edge_byte(n, i)) ok = 0;
        }
      }
      ++n;
    }
  }
  return reinterpret_cast<void*>(ok);
}

// Rank 0 sends one 12 KiB message, stamped with its send time, to rank 1
// and then computes for 100 ms without blocking. Rank 1 returns how long the
// message took to arrive, in microseconds.
constexpr int kLoneBytes = 12 << 10;

void* lone_entry(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  std::vector<std::byte> buf(kLoneBytes);
  if (env->rank() == 0) {
    const double sent = env->wtime();
    std::memcpy(buf.data(), &sent, sizeof sent);
    env->send(buf.data(), kLoneBytes, mpi::Datatype::Byte, 1, 4);
    env->compute(0.1);
    return nullptr;
  }
  env->recv(buf.data(), kLoneBytes, mpi::Datatype::Byte, 0, 4);
  const double arrived = env->wtime();
  double sent = 0;
  std::memcpy(&sent, buf.data(), sizeof sent);
  return reinterpret_cast<void*>(
      static_cast<std::intptr_t>((arrived - sent) * 1e6));
}

}  // namespace

// A cross-PE stream over the size edges arrives intact and in order, and
// each bundled send is written straight into its aggregation bin: the pool
// serves only the unbundled sends and the bins' envelopes.
TEST(Aggregation, SendSizeEdgesAcrossPes) {
  const img::ProgramImage image = entry_image("agg_edges", &size_edge_stream);
  mpi::RuntimeConfig cfg = transport_cfg(2, 2, core::Method::None);
  // A steal could put both ranks on one PE, where sends go inline.
  cfg.options.set("sched.steal", "off");
  mpi::Runtime rt(image, cfg);
  comm::pool::reset_stats();
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);

  std::uint64_t bundled = 0;
  std::uint64_t bytes = 0;
  for (const std::size_t b : kEdgeSizes) {
    if (comm::agg_fits(b)) ++bundled;
    bytes += b;
  }
  bundled *= kEdgePasses;
  bytes *= kEdgePasses;
  const std::uint64_t sends = std::size(kEdgeSizes) * kEdgePasses;
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_EQ(v[Ctr::CommSends], sends);
  EXPECT_EQ(v[Ctr::CommAggregated], bundled);
  EXPECT_EQ(v[Ctr::CommBytes], bytes);
  const comm::PoolStats s = comm::pool::stats();
  EXPECT_EQ(s.hits + s.misses, sends - bundled + v[Ctr::CommAggEnvelopes]);
  EXPECT_EQ(s.bytes_copied, 0u);
}

// A bin ships as soon as another entry of the size just appended would not
// fit, so a lone 12 KiB message leaves at once instead of when its sender
// next blocks or idles. Its sender computes for 100 ms without blocking
// right after the send: a bin that waited for a successor would hold the
// message that long.
TEST(Aggregation, LoneEntryShipsWithoutSuccessor) {
  const img::ProgramImage image = entry_image("agg_lone", &lone_entry);
  mpi::RuntimeConfig cfg = transport_cfg(2, 2, core::Method::None);
  cfg.options.set("sched.steal", "off");
  mpi::Runtime rt(image, cfg);
  rt.run();
  EXPECT_EQ(rt.cluster().totals()[Ctr::CommAggregated], 1u);
  EXPECT_LT(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 10000)
      << "microseconds from the send to the completed receive";
}

// Acceptance: routed delivery copies a message's bytes once, out of the
// sender's buffer, and hands that copy to the receiver — the pool observes
// hits and zero payload-to-payload copies. That holds within a PE (same-PE
// inline fast path disabled), where the copy is a pooled payload, and
// across PEs both for messages that fit an aggregation bin (256 B, 4 KiB),
// which are written straight into it and arrive as views into its
// envelope, and for one too big for a bin (32 KiB), which travels in a
// pooled payload of its own.
TEST(ZeroCopy, RoutedDeliveryCopiesNoPayloadBytes) {
  struct Case {
    const char* name;
    int pes;
    img::NativeFn fn;
    std::uint64_t aggregated;  // sends expected to travel bundled
  };
  for (const Case& c : {Case{"intra-PE 256 B", 1, &pingpong<256>, 0},
                        Case{"inter-PE 256 B", 2, &pingpong<256>, 200},
                        Case{"inter-PE 4 KiB", 2, &pingpong<4096>, 200},
                        Case{"inter-PE 32 KiB", 2, &pingpong<32768>, 0}}) {
    SCOPED_TRACE(c.name);
    const img::ProgramImage image = entry_image("zc_routed", c.fn);
    mpi::RuntimeConfig cfg = transport_cfg(2, c.pes, core::Method::None);
    cfg.options.set("comm.inline", "off");
    mpi::Runtime rt(image, cfg);
    comm::pool::reset_stats();
    rt.run();
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);
    const comm::PoolStats s = comm::pool::stats();
    EXPECT_GT(s.hits, 0u);
    EXPECT_EQ(s.bytes_copied, 0u);
    EXPECT_EQ(rt.cluster().totals()[Ctr::CommAggregated], c.aggregated);
  }
}

// Acceptance: with the inline fast path on (the default), the same exchange
// bypasses the payload pool entirely — user buffer to user buffer.
TEST(ZeroCopy, IntraPeInlineDeliverySkipsThePool) {
  const img::ProgramImage image = entry_image("zc_inline", &pingpong<256>);
  mpi::Runtime rt(image, transport_cfg(2, 1, core::Method::None));
  comm::pool::reset_stats();
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);
  const comm::PoolStats s = comm::pool::stats();
  EXPECT_EQ(s.bytes_copied, 0u);
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_GT(v[Ctr::InlineHits] + v[Ctr::InlineMisses], 0u);
}

// Acceptance: migration ships the packed image by moving the buffer — pack
// adopts into the envelope, arrival releases it back out, zero copies.
TEST(ZeroCopy, MigrationMovesThePackedImage) {
  const img::ProgramImage image =
      entry_image("zc_migrate", &migrate_roundtrip);
  mpi::Runtime rt(image, transport_cfg(2, 2, core::Method::PIEglobals));
  comm::pool::reset_stats();
  rt.run();
  for (int r = 0; r < 2; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1);
  EXPECT_EQ(rt.cluster().totals()[Ctr::Migrations], 2u);
  EXPECT_EQ(comm::pool::stats().bytes_copied, 0u);
}

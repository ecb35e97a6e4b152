// p2p: three client/server pairs (r, r+3) on 6 ranks, all cross-PE under
// the block map, Method::None. A closed loop with three clients: each op
// is a burst of b messages of s bytes, answered by one 16-byte reply. The
// (b, s) deck holds every combination of b in {1, 4, 32} and s in
// {16, 256, 4096} equally often, in a seeded order per client, so the op
// mix is the same on every seed. Payload bytes come from a seeded pool and
// the server checks each message against it.

#include <cstring>

#include "bench.hpp"
#include "mpi/env.hpp"
#include "util/rng.hpp"

namespace apvbench {

namespace {

using mpi::Datatype;

constexpr int kPairs = 3;
constexpr int kDeck = 900;  // per-client deck length, a multiple of 9
constexpr int kOpsPerRep = 30000;  // per client
constexpr std::size_t kPoolWindow = std::size_t{64} << 10;
constexpr int kBursts[3] = {1, 4, 32};
constexpr int kSizes[3] = {16, 256, 4096};
constexpr int kMaxMsg = 4096;
constexpr int kTagData = 1;
constexpr int kTagReply = 2;

struct Reply {
  std::uint32_t op;
  std::uint32_t bad;
  std::uint64_t bytes;
};
static_assert(sizeof(Reply) == 16);

// Where message i of op k from client c starts in the payload pool.
std::size_t msg_offset(int c, std::uint32_t k, int i) {
  return (mix(static_cast<std::uint64_t>(c), k, static_cast<std::uint64_t>(i)) %
          (kPoolWindow / 8)) *
         8;
}

void* p2p_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  RankLog& log = log_of(me);
  const auto g_ops = env->global<int>("ops_per_rep");
  const auto deck = env->global_array<std::uint8_t>("deck");
  const auto pool = env->global_array<char>("pool");
  const bool client = me < kPairs;
  const int peer = client ? me + kPairs : me - kPairs;
  const int c = client ? me : peer;

  std::vector<char> buf(kMaxMsg);
  Reply reply{};
  for (int k = 0; k < g_ops.get(); ++k) {
    const auto op = static_cast<std::uint32_t>(k);
    const std::uint8_t e =
        deck[static_cast<std::size_t>(c * kDeck + k % kDeck)];
    const int b = kBursts[e / 3];
    const int s = kSizes[e % 3];
    if (client) {
      log.op_begin(op);
      for (int i = 0; i < b; ++i) {
        const char* p = pool.data() + msg_offset(c, op, i);
        log.call(Span::Send,
                 [&] { env->send(p, s, Datatype::Byte, peer, kTagData); });
      }
      log.call(Span::Recv, [&] {
        env->recv(&reply, sizeof reply, Datatype::Byte, peer, kTagReply);
      });
      log.op_end();
      if (reply.op != op || reply.bad != 0 ||
          reply.bytes != static_cast<std::uint64_t>(b) * s)
        log.op_failed();
    } else {
      Reply r{op, 0, 0};
      for (int i = 0; i < b; ++i) {
        const mpi::Status st =
            env->recv(buf.data(), kMaxMsg, Datatype::Byte, peer, kTagData);
        r.bytes += static_cast<std::uint64_t>(st.count_bytes);
        if (st.count_bytes != s ||
            std::memcmp(buf.data(), pool.data() + msg_offset(c, op, i),
                        static_cast<std::size_t>(s)) != 0)
          ++r.bad;
      }
      env->send(&r, sizeof r, Datatype::Byte, peer, kTagReply);
    }
  }
  return nullptr;
}

}  // namespace

Workload make_p2p(std::uint64_t seed) {
  // One deck per client: every (burst, size) class equally often, shuffled.
  std::vector<std::uint8_t> deck(static_cast<std::size_t>(kPairs * kDeck));
  for (int c = 0; c < kPairs; ++c) {
    std::uint8_t* d = deck.data() + c * kDeck;
    for (int i = 0; i < kDeck; ++i) d[i] = static_cast<std::uint8_t>(i % 9);
    util::SplitMix64 rng(mix(seed, 0x9292, static_cast<std::uint64_t>(c)));
    for (int i = kDeck - 1; i > 0; --i)
      std::swap(d[i], d[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<char> pool(kPoolWindow + kMaxMsg);
  util::SplitMix64 rng(mix(seed, 0x7001));
  for (char& ch : pool) ch = static_cast<char>(rng.next() & 0xff);

  img::ImageBuilder b("apvbench-p2p");
  b.add_global<int>("ops_per_rep", kOpsPerRep);
  b.add_var("deck", deck.size(), 1, deck.data(), deck.size());
  b.add_var("pool", pool.size(), 8, pool.data(), pool.size());
  b.add_function("mpi_main", &p2p_main);

  Workload w;
  w.name = "p2p";
  w.shape =
      "6 ranks, none, 3 cross-PE client/server pairs, closed loop; op = "
      "burst of {1,4,32} x {16,256,4096} B + 16 B reply";
  w.method = core::Method::None;
  w.vps = 2 * kPairs;
  w.image = b.build();
  w.timing_ranks = {0, 1, 2};
  w.ops_per_rep = std::uint64_t{kPairs} * kOpsPerRep;
  return w;
}

}  // namespace apvbench

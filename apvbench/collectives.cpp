// collectives: 48 ranks under TLSglobals (16 per PE). A seeded sequence of
// allreduce (8 B and 64 KiB), bcast 4 KiB, allgather and alltoall of 64 B
// per rank, a non-uniform gatherv and barrier, each on the world and on a
// two-colour comm_split whose colours the seed draws (8 of each colour per
// PE, so both groups are non-contiguous in world rank). Every kind appears
// equally often on each communicator; the seed sets the order, roots,
// colours, gatherv counts and payload values. An op is one collective call
// on one rank, timed on every rank; every rank checks its result against
// closed form.

#include <cstring>

#include "bench.hpp"
#include "mpi/env.hpp"
#include "util/rng.hpp"

namespace apvbench {

namespace {

using mpi::Datatype;
using mpi::Op;
using mpi::OpKind;

constexpr int kRanks = 48;
constexpr int kPes = 3;
constexpr int kKinds = 7;
constexpr int kPerClass = 40;  // deck: kinds x {world, split} x kPerClass
constexpr int kDeck = kKinds * 2 * kPerClass;
constexpr int kCallsPerRep = 10 * kDeck;
constexpr int kBigLongs = 8192;  // 64 KiB allreduce
constexpr int kBcastLongs = 512;  // 4 KiB bcast
constexpr int kBlock = 8;         // 64 B per rank
constexpr int kMaxGv = 16;        // gatherv counts are 1..kMaxGv longs

enum Kind : int {
  kAllreduce8,
  kAllreduce64K,
  kBcast,
  kAllgather,
  kAlltoall,
  kGatherv,
  kBarrier
};

constexpr Span kKindSpan[kKinds] = {Span::Allreduce8,  Span::Allreduce64K,
                                    Span::Bcast4K,     Span::Allgather64,
                                    Span::Alltoall64,  Span::Gatherv,
                                    Span::Barrier};

// Deck entry layout: kind | comm << 4 | root << 8 (root as a comm rank).
inline int entry_kind(int e) { return e & 0xf; }
inline int entry_split(int e) { return (e >> 4) & 1; }
inline int entry_root(int e) { return e >> 8; }

// Base value of world rank `wr`'s contribution to deck entry `k`.
inline std::int64_t base(std::uint64_t seed, int k, int wr) {
  return static_cast<std::int64_t>(
      mix(seed, static_cast<std::uint64_t>(k), static_cast<std::uint64_t>(wr)) >>
      40);
}

void* coll_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  RankLog& log = log_of(me);
  const auto g_calls = env->global<int>("calls_per_rep");
  const auto deck = env->global_array<int>("deck");
  const auto colors = env->global_array<int>("colors");
  const auto gv_counts = env->global_array<int>("gv_counts");
  const std::uint64_t seed = env->global<std::uint64_t>("seed").get();

  // Members of each communicator in comm-rank order (key = world rank).
  const mpi::CommId split = env->comm_split(mpi::kCommWorld, colors[me], me);
  const int split_rank = env->rank(split);
  std::vector<int> members[2];
  for (int r = 0; r < kRanks; ++r) {
    members[0].push_back(r);
    if (colors[r] == colors[me]) members[1].push_back(r);
  }

  std::vector<std::int64_t> in(kBigLongs), out(kBigLongs);
  std::vector<int> counts(kRanks), displs(kRanks);
  env->barrier();
  for (int k = 0; k < g_calls.get(); ++k) {
    const int e = deck[static_cast<std::size_t>(k % kDeck)];
    const int kind = entry_kind(e);
    const bool on_split = entry_split(e) != 0;
    const mpi::CommId comm = on_split ? split : mpi::kCommWorld;
    const std::vector<int>& mem = members[on_split ? 1 : 0];
    const int n = static_cast<int>(mem.size());
    const int cr = on_split ? split_rank : me;
    const int root = entry_root(e) % n;
    const std::int64_t mine = base(seed, k, me);
    bool ok = true;

    switch (kind) {
      case kAllreduce8:
      case kAllreduce64K: {
        const int len = kind == kAllreduce8 ? 1 : kBigLongs;
        for (int i = 0; i < len; ++i) in[i] = mine + 7 * i;
        log.op_begin(static_cast<std::uint32_t>(k));
        log.call(kKindSpan[kind], [&] {
          env->allreduce(in.data(), out.data(), len, Datatype::Long,
                         Op::builtin(OpKind::Sum), comm);
        });
        log.op_end();
        std::int64_t sum = 0;
        for (int r : mem) sum += base(seed, k, r);
        for (int i = 0; i < len; ++i)
          if (out[i] != sum + std::int64_t{7} * n * i) ok = false;
        break;
      }
      case kBcast: {
        const std::int64_t b0 = base(seed, k, mem[root]);
        if (cr == root)
          for (int i = 0; i < kBcastLongs; ++i) in[i] = b0 + i;
        else
          std::memset(in.data(), 0, kBcastLongs * sizeof(std::int64_t));
        log.op_begin(static_cast<std::uint32_t>(k));
        log.call(kKindSpan[kind], [&] {
          env->bcast(in.data(), kBcastLongs, Datatype::Long, root, comm);
        });
        log.op_end();
        for (int i = 0; i < kBcastLongs; ++i)
          if (in[i] != b0 + i) ok = false;
        break;
      }
      case kAllgather: {
        for (int i = 0; i < kBlock; ++i) in[i] = mine + i;
        log.op_begin(static_cast<std::uint32_t>(k));
        log.call(kKindSpan[kind], [&] {
          env->allgather(in.data(), kBlock, Datatype::Long, out.data(), kBlock,
                         Datatype::Long, comm);
        });
        log.op_end();
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < kBlock; ++i)
            if (out[j * kBlock + i] != base(seed, k, mem[j]) + i) ok = false;
        break;
      }
      case kAlltoall: {
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < kBlock; ++i)
            in[j * kBlock + i] = mine + 1000 * j + i;
        log.op_begin(static_cast<std::uint32_t>(k));
        log.call(kKindSpan[kind], [&] {
          env->alltoall(in.data(), kBlock, Datatype::Long, out.data(), kBlock,
                        Datatype::Long, comm);
        });
        log.op_end();
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < kBlock; ++i)
            if (out[j * kBlock + i] != base(seed, k, mem[j]) + 1000 * cr + i)
              ok = false;
        break;
      }
      case kGatherv: {
        int total = 0;
        for (int j = 0; j < n; ++j) {
          counts[j] = gv_counts[mem[j]];
          displs[j] = total;
          total += counts[j];
        }
        const int cnt = gv_counts[me];
        for (int i = 0; i < cnt; ++i) in[i] = mine + i;
        log.op_begin(static_cast<std::uint32_t>(k));
        log.call(kKindSpan[kind], [&] {
          env->gatherv(in.data(), cnt, Datatype::Long, out.data(),
                       counts.data(), displs.data(), Datatype::Long, root,
                       comm);
        });
        log.op_end();
        if (cr == root)
          for (int j = 0; j < n; ++j)
            for (int i = 0; i < counts[j]; ++i)
              if (out[displs[j] + i] != base(seed, k, mem[j]) + i) ok = false;
        break;
      }
      default:
        log.op_begin(static_cast<std::uint32_t>(k));
        log.call(kKindSpan[kind], [&] { env->barrier(comm); });
        log.op_end();
        break;
    }
    if (!ok) log.op_failed();
  }
  env->comm_free(split);
  return nullptr;
}

}  // namespace

Workload make_collectives(std::uint64_t seed) {
  util::SplitMix64 rng(mix(seed, 0xc011));
  // Deck: every (kind, communicator) class kPerClass times, shuffled, with
  // a seeded root for the rooted kinds.
  std::vector<int> deck;
  for (int c = 0; c < kKinds * 2; ++c)
    for (int i = 0; i < kPerClass; ++i)
      deck.push_back((c % kKinds) | (c / kKinds) << 4 |
                     static_cast<int>(rng.next_below(kRanks)) << 8);
  for (int i = kDeck - 1; i > 0; --i)
    std::swap(deck[static_cast<std::size_t>(i)],
              deck[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  // Colours: half of each PE's block of ranks gets colour 1.
  std::vector<int> colors(kRanks);
  const int per_pe = kRanks / kPes;
  for (int p = 0; p < kPes; ++p) {
    int* c = colors.data() + p * per_pe;
    for (int i = 0; i < per_pe; ++i) c[i] = i % 2;
    for (int i = per_pe - 1; i > 0; --i)
      std::swap(c[i], c[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<int> gv(kRanks);
  for (int& g : gv) g = 1 + static_cast<int>(rng.next_below(kMaxGv));

  const img::VarFlags tls{.is_tls = true};
  img::ImageBuilder b("apvbench-collectives");
  b.add_global<int>("calls_per_rep", kCallsPerRep, tls);
  b.add_var("deck", deck.size() * sizeof(int), alignof(int), deck.data(),
            deck.size() * sizeof(int), tls);
  b.add_var("colors", colors.size() * sizeof(int), alignof(int),
            colors.data(), colors.size() * sizeof(int), tls);
  b.add_var("gv_counts", gv.size() * sizeof(int), alignof(int), gv.data(),
            gv.size() * sizeof(int), tls);
  b.add_global<std::uint64_t>("seed", seed, tls);
  b.add_function("mpi_main", &coll_main);

  Workload w;
  w.name = "collectives";
  w.shape =
      "48 ranks, tlsglobals, allreduce 8 B/64 KiB, bcast 4 KiB, allgather and "
      "alltoall 64 B/rank, gatherv, barrier on world and a seeded 2-colour "
      "split; op = one collective call on one rank";
  w.method = core::Method::TLSglobals;
  w.vps = kRanks;
  w.image = b.build();
  for (int r = 0; r < kRanks; ++r) w.timing_ranks.push_back(r);
  w.ops_per_rep = std::uint64_t{kRanks} * kCallsPerRep;
  return w;
}

}  // namespace apvbench

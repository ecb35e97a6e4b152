// Model-based test of mpi::MatchQueues, one rank's point-to-point matching
// unit, driven with no Runtime. Each case is a random interleaving of sends
// (routed ones, which arrive later in any order, as forwards after a
// migration deliver them; same-PE ones, which arrive at once from a buffer
// the sender reuses), receives posted with wildcard or named sources and
// tags, internal tags, and probes. After every step the unit must agree
// with a reference of MPI's rules: a message is matched only after every
// older one from its sender, by the oldest posted receive it fits; a
// receive takes the oldest unexpected message it fits; a wildcard tag never
// takes an internal tag.
//
// The seed base is gtest's random seed: 0 under plain ctest (a fixed set of
// cases), a new one on every repetition under --gtest_shuffle
// --gtest_repeat=N. A failure prints it with the failing case's seed and
// trace, and how to replay it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "comm/payload.hpp"
#include "mpi/match.hpp"
#include "util/rng.hpp"

using namespace apv;
using mpi::CommId;
using mpi::MatchQueues;
using mpi::RecvPost;

namespace {

constexpr int kCases = 20000;
constexpr int kSteps = 48;
constexpr int kReceiver = 0;    // the rank whose queues are under test; it
                                // sends to itself too
constexpr int kMaxSenders = 4;  // world ranks 0 .. kMaxSenders-1
constexpr int kComms = 2;
constexpr int kInternalTag = mpi::kInternalTagBase | 5;
constexpr int kTags[] = {0, 1, 2, kInternalTag};

// A message's bytes name its sender and sequence number, so a completion
// shows which message fed it. Every fifth message is empty, as barrier
// tokens are.
std::vector<std::byte> content(int src, std::uint32_t seq) {
  if (seq % 5 == 0) return {};
  std::vector<std::byte> b(8 + (seq % 3) * 24);
  const std::int32_t hdr[2] = {src, static_cast<std::int32_t>(seq)};
  std::memcpy(b.data(), hdr, sizeof hdr);
  for (std::size_t i = sizeof hdr; i < b.size(); ++i)
    b[i] = static_cast<std::byte>((src * 37 + seq * 11 + i) & 0xff);
  return b;
}

struct Sent {
  int src = 0;
  std::uint32_t seq = 0;
  CommId comm = 0;
  int tag = 0;
};

// One completed receive, in the order completions happened.
struct Completion {
  mpi::Request req = mpi::kRequestNull;
  int src = 0;
  std::uint32_t seq = 0;
  bool operator==(const Completion&) const = default;
};

// MPI's matching and non-overtaking rules, stated directly: a message from
// sender s lands once it and every older message from s have arrived
// (sender order, whatever the arrival order); a landing message completes
// the oldest pending receive that accepts it, else joins the unexpected
// messages; a new receive takes the oldest unexpected message it accepts,
// else waits.
class Reference {
 public:
  static bool accepts(const RecvPost& r, const Sent& m) {
    const bool src_ok = r.src == mpi::kAnySource || r.src == m.src;
    const bool tag_ok =
        r.tag == mpi::kAnyTag ? m.tag <= mpi::kMaxUserTag : r.tag == m.tag;
    return r.comm == m.comm && src_ok && tag_ok;
  }

  void send(const Sent& m) {
    sent_[m.src].push_back(m);
    arrived_[m.src].push_back(false);
  }

  MatchQueues::Arrival arrive(int src, std::uint32_t seq) {
    const std::size_t k = seq - 1;
    arrived_[src][k] = true;
    if (k != landed_[src]) return MatchQueues::Arrival::Held;
    MatchQueues::Arrival first = MatchQueues::Arrival::Held;
    while (landed_[src] < sent_[src].size() && arrived_[src][landed_[src]]) {
      const MatchQueues::Arrival a = land(sent_[src][landed_[src]++]);
      if (first == MatchQueues::Arrival::Held) first = a;
    }
    return first;
  }

  bool post(const RecvPost& r) {
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!accepts(r, *it)) continue;
      log.push_back({r.req, it->src, it->seq});
      unexpected_.erase(it);
      return true;
    }
    pending_.push_back(r);
    return false;
  }

  const Sent* probe(const RecvPost& r) const {
    for (const Sent& m : unexpected_)
      if (accepts(r, m)) return &m;
    return nullptr;
  }

  std::size_t pending() const { return pending_.size(); }
  std::size_t unexpected() const { return unexpected_.size(); }
  std::size_t held() const {
    std::size_t n = 0;
    for (int s = 0; s < kMaxSenders; ++s)
      for (std::size_t k = landed_[s]; k < arrived_[s].size(); ++k)
        n += arrived_[s][k] ? 1 : 0;
    return n;
  }

  std::vector<Completion> log;

 private:
  MatchQueues::Arrival land(const Sent& m) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (!accepts(*it, m)) continue;
      log.push_back({it->req, m.src, m.seq});
      pending_.erase(it);
      return MatchQueues::Arrival::Matched;
    }
    unexpected_.push_back(m);
    return MatchQueues::Arrival::Queued;
  }

  std::vector<Sent> sent_[kMaxSenders];
  std::vector<bool> arrived_[kMaxSenders];
  std::size_t landed_[kMaxSenders] = {};
  std::vector<RecvPost> pending_;
  std::vector<Sent> unexpected_;
};

const char* arrival_name(MatchQueues::Arrival a) {
  switch (a) {
    case MatchQueues::Arrival::Matched: return "Matched";
    case MatchQueues::Arrival::Queued: return "Queued";
    case MatchQueues::Arrival::Held: return "Held";
  }
  return "?";
}

std::string describe(const RecvPost& r) {
  return "(src=" + std::to_string(r.src) + " tag=" + std::to_string(r.tag) +
         " comm=" + std::to_string(r.comm) + ")";
}

std::string describe(const Sent& m) {
  return "(src=" + std::to_string(m.src) + " seq=" + std::to_string(m.seq) +
         " tag=" + std::to_string(m.tag) + " comm=" + std::to_string(m.comm) +
         ")";
}

// Runs the case `seed`. Returns "" if the unit agreed with the reference
// after every step, else the step that differed first. `trace`, when given,
// gets one line per step and says how the step differed; without it the
// case runs with no text built, fast enough for thousands of seeds.
std::string run_case(std::uint64_t seed, std::string* trace) {
  util::SplitMix64 rng(seed);
  const int senders = 1 + static_cast<int>(rng.next_below(kMaxSenders));
  MatchQueues rx;
  MatchQueues tx[kMaxSenders];  // tx[kReceiver] is unused: rx stamps its own
  Reference ref;
  std::vector<comm::Message> in_flight;
  std::vector<Completion> got;
  bool bytes_ok = true;
  mpi::Request next_req = 0;
  std::vector<std::byte> sender_buf;

  const auto complete = [&](const RecvPost& post, const comm::Message& m,
                            const void* data, std::size_t bytes) {
    const auto seq = static_cast<std::uint32_t>(m.seq);
    got.push_back({post.req, m.src_rank, seq});
    const std::vector<std::byte> want = content(m.src_rank, seq);
    bytes_ok = bytes_ok && bytes == want.size() &&
               (bytes == 0 || std::memcmp(data, want.data(), bytes) == 0);
  };
  const auto pattern = [&] {
    RecvPost r;
    r.src = rng.next_below(3) == 0
                ? mpi::kAnySource
                : static_cast<int>(rng.next_below(
                      static_cast<std::uint64_t>(senders)));
    const std::uint64_t t = rng.next_below(std::size(kTags) + 2);
    r.tag = t < std::size(kTags) ? kTags[t] : mpi::kAnyTag;
    r.comm = static_cast<CommId>(rng.next_below(kComms));
    return r;
  };

  for (int step = 0; step < kSteps || !in_flight.empty(); ++step) {
    // Past kSteps, only arrivals: every routed message lands in the end.
    const std::uint64_t op = step < kSteps ? rng.next_below(10) : 3;
    std::string what;  // built only for a trace
    bool agree = true;
    if (op <= 2) {  // a send; one in three is same-PE
      const int src = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(senders)));
      comm::Message m;
      m.src_rank = src;
      m.dst_rank = kReceiver;
      m.comm_id = static_cast<CommId>(rng.next_below(kComms));
      m.tag = kTags[rng.next_below(std::size(kTags))];
      m.seq = (src == kReceiver ? rx : tx[src]).next_seq(kReceiver);
      const Sent sent{src, static_cast<std::uint32_t>(m.seq), m.comm_id,
                      m.tag};
      ref.send(sent);
      const std::vector<std::byte> bytes = content(src, sent.seq);
      if (op == 0) {
        // Same-PE: the bytes are still in the sender's buffer, which the
        // sender reuses as soon as the send returns.
        sender_buf = bytes;
        const MatchQueues::Arrival a = rx.arrive(
            std::move(m), sender_buf.data(), sender_buf.size(), complete);
        std::fill(sender_buf.begin(), sender_buf.end(), std::byte{0xee});
        const MatchQueues::Arrival want = ref.arrive(src, sent.seq);
        agree = a == want;
        if (trace != nullptr)
          what = "same-PE send " + describe(sent) + " -> " +
                 arrival_name(a) + ", expected " + arrival_name(want);
      } else {
        if (!bytes.empty())
          m.payload = comm::Payload::copy_of(bytes.data(), bytes.size());
        in_flight.push_back(std::move(m));
        if (trace != nullptr) what = "routed send " + describe(sent);
      }
    } else if (op <= 5) {  // a routed message arrives, in any order
      if (in_flight.empty()) continue;
      const std::uint64_t i = rng.next_below(in_flight.size());
      comm::Message m = std::move(in_flight[i]);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
      const int src = m.src_rank;
      const auto seq = static_cast<std::uint32_t>(m.seq);
      const void* data = m.payload.data();
      const std::size_t bytes = m.payload.size();
      const MatchQueues::Arrival a =
          rx.arrive(std::move(m), data, bytes, complete);
      const MatchQueues::Arrival want = ref.arrive(src, seq);
      agree = a == want;
      if (trace != nullptr)
        what = "arrival from " + std::to_string(src) + " seq " +
               std::to_string(seq) + " -> " + arrival_name(a) +
               ", expected " + arrival_name(want);
    } else if (op <= 8) {  // a receive is posted
      RecvPost r = pattern();
      r.req = next_req++;
      const bool matched = rx.post(r, complete);
      const bool want = ref.post(r);
      agree = matched == want;
      if (trace != nullptr)
        what = "post req " + std::to_string(r.req) + " " + describe(r) +
               (matched ? " -> matched" : " -> queued") +
               (want ? ", expected matched" : ", expected queued");
    } else {  // a probe
      const RecvPost r = pattern();
      const comm::Message* m = rx.probe(r);
      const Sent* want = ref.probe(r);
      agree = (m == nullptr) == (want == nullptr) &&
              (m == nullptr ||
               (m->src_rank == want->src &&
                static_cast<std::uint32_t>(m->seq) == want->seq));
      if (trace != nullptr)
        what = "probe " + describe(r) + " -> " +
               (m != nullptr ? "from " + std::to_string(m->src_rank) +
                                   " seq " + std::to_string(m->seq)
                             : std::string("none")) +
               ", expected " +
               (want != nullptr ? describe(*want) : std::string("none"));
    }
    const bool sizes_agree = rx.num_posted() == ref.pending() &&
                             rx.num_unexpected() == ref.unexpected() &&
                             rx.num_held() == ref.held();
    const bool ok = agree && got == ref.log && bytes_ok && sizes_agree;
    if (trace != nullptr) {
      *trace += "  step " + std::to_string(step) + ": " + what + "\n";
      if (!ok) {
        *trace += "  completions: " + std::to_string(got.size()) +
                  " (expected " + std::to_string(ref.log.size()) + ")" +
                  (got == ref.log ? "" : ", differ") +
                  (bytes_ok ? "" : "; a receive got the wrong bytes") +
                  "; posted/unexpected/held " +
                  std::to_string(rx.num_posted()) + "/" +
                  std::to_string(rx.num_unexpected()) + "/" +
                  std::to_string(rx.num_held()) + " (expected " +
                  std::to_string(ref.pending()) + "/" +
                  std::to_string(ref.unexpected()) + "/" +
                  std::to_string(ref.held()) + ")\n";
      }
    }
    if (!ok) return "differs at step " + std::to_string(step);
  }
  return {};
}

}  // namespace

TEST(MatchQueues, AgreesWithMpiRulesOnRandomInterleavings) {
  const auto base = static_cast<std::uint32_t>(
      testing::UnitTest::GetInstance()->random_seed());
  for (std::uint32_t i = 0; i < kCases; ++i) {
    const std::uint64_t seed = (std::uint64_t{base} << 32) | i;
    if (run_case(seed, nullptr).empty()) continue;
    std::string trace;
    const std::string diff = run_case(seed, &trace);
    // gtest reads a random seed of 0 as "pick one from the clock".
    const std::string replay =
        base == 0 ? "test_match"
                  : "test_match --gtest_shuffle --gtest_random_seed=" +
                        std::to_string(base);
    FAIL() << "random_seed=" << base << " case seed=" << seed << "\n"
           << trace << diff << "\nreplay: " << replay;
  }
}

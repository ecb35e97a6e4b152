// Model-based test of comm::RankPlaces, the one record of where each rank
// is, driven with no Runtime and no threads. Each case is a small machine
// (2-4 PEs, one or two per node, 2-6 ranks) run through a random
// interleaving of:
//   - user sends from several ranks, same-PE (landed at once) or routed
//     through FIFO mailboxes to the PE the sender reads from the unit, and
//     forwarded from there when the rank has moved on;
//   - moves within a node and between nodes (the arrival of the latter
//     unpacks the slot image taken when the rank left), and steals;
//   - the envelope of a move sent at once, later (the window between a
//     rank leaving and its envelope landing in a mailbox), or at once and
//     handled at once, as a destination thread running concurrently would;
//   - an FT kill: the victim PE's ranks park, the PE fails and drains its
//     backlog, and the recovery re-homes every rank on it (parked, or in
//     flight to it when it died) to a live adopter, which admits it;
//   - stop, after which PEs exit as Pe::run_loop does, and stop drains.
// After every step the unit must agree with the model: each rank is in
// exactly one place, the per-PE lists and arrival counts agree with the
// per-rank places, and every message not yet landed is in a mailbox, the
// dead letters, or its rank's arrival queue (only while the rank is in
// flight). A landing must find its rank hosted by the landing PE, never
// land twice, and survive any later unpack; an arrival must ready its rank
// once and then release the queue in the order it filled. No move may
// start after stop, and no live PE may exit while a rank is in flight to
// it. At the end every rank has finished, been unwound by a stop drain, or
// died with its PE.
//
// The seed base is gtest's random seed: 0 under plain ctest (a fixed set of
// cases), a new one on every repetition under --gtest_shuffle
// --gtest_repeat=N. A failure prints it with the failing case's seed and
// trace, and how to replay it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "comm/places.hpp"
#include "util/rng.hpp"

using namespace apv;
using comm::Message;
using comm::PeId;
using comm::Place;
using comm::RankId;
using comm::RankPlaces;
using comm::Route;
using comm::Where;

namespace {

constexpr int kCases = 20000;
constexpr int kSteps = 40;
constexpr int kDrainSteps = 4000;  // after stop: enough to quiesce
constexpr int kMaxPes = 4;
constexpr int kMaxRanks = 6;

// Control envelopes (Message::opcode); a steal request's tag is the thief.
constexpr std::int32_t kAdopt = 1;
constexpr std::int32_t kStealRequest = 2;
// Migration envelopes (Message::opcode).
constexpr std::int32_t kPlain = 0;
constexpr std::int32_t kSteal = 1;

std::string str(Place p) {
  static const char* const kWhere[] = {"Resident", "InFlight", "Parked",
                                       "Finished"};
  return std::string(kWhere[static_cast<int>(p.where)]) + "(" +
         std::to_string(p.pe) + ")";
}

struct Rank {
  Place truth;           // where the model moved it; the unit must agree
  bool queued = false;   // in its PE's ready queue
  bool waiting = false;  // parked in a blocking call
  bool unwound = false;  // a stop drain unwound it
  // Messages taken into receive buffers, which live in the slot, and the
  // slot image taken when the rank left for another node.
  std::vector<int> slot, image;
  // The hold a receiver's matching keeps, as MatchQueues does: per sender,
  // the next sequence number to take and those that arrived early.
  std::uint32_t next_from[kMaxRanks] = {};
  std::set<std::uint32_t> held[kMaxRanks];
  std::vector<int> queued_order;  // ids the unit queued for its arrival
};

struct Sent {
  RankId src = 0;
  RankId dst = 0;
  std::uint32_t seq = 0;
  int landings = 0;
};

class World {
 public:
  World(std::uint64_t seed, std::string* trace)
      : rng_(seed),
        npes_(2 + static_cast<int>(rng_.next_below(kMaxPes - 1))),
        per_node_(1 + static_cast<int>(rng_.next_below(2))),
        nranks_(2 + static_cast<int>(rng_.next_below(kMaxRanks - 1))),
        places_(npes_),
        trace_(trace) {
    std::vector<PeId> initial(static_cast<std::size_t>(nranks_));
    for (RankId r = 0; r < nranks_; ++r) {
      initial[static_cast<std::size_t>(r)] =
          static_cast<PeId>(rng_.next_below(static_cast<std::uint64_t>(npes_)));
      ranks_[r].truth = {Where::Resident, initial[static_cast<std::size_t>(r)]};
      ranks_[r].queued = true;
    }
    places_.seed(initial);
    note("machine: " + std::to_string(npes_) + " PEs, " +
         std::to_string(per_node_) + " per node, " + std::to_string(nranks_) +
         " ranks");
  }

  // Runs the case; "" if the unit agreed with the model throughout.
  std::string run() {
    for (int step = 0; step < kSteps && error_.empty(); ++step) {
      guarded([&] { random_step(/*draining=*/false); });
      check();
    }
    if (!stopping_) guarded([&] { begin_stop(); });
    for (int step = 0; step < kDrainSteps && error_.empty() && !quiet();
         ++step) {
      guarded([&] { random_step(/*draining=*/true); });
      check();
    }
    if (error_.empty() && !quiet()) fail("teardown did not quiesce");
    if (error_.empty()) final_check();
    return error_;
  }

 private:
  // --- the machine around the unit ---------------------------------------

  PeId node(PeId pe) const { return pe / per_node_; }
  bool live(PeId pe) const { return !failed_[pe] && !exited_[pe]; }

  // Cluster::send: a failed PE's user traffic follows its rank's place or
  // waits in the dead letters; its other traffic is lost with it.
  void send_to(PeId dest, Message&& m) {
    m.dst_pe = dest;
    if (!failed_[dest]) {
      mbox_[dest].push_back(std::move(m));
      return;
    }
    if (m.kind != Message::Kind::UserData) {
      note("  envelope to failed PE " + std::to_string(dest) + " dropped");
      return;
    }
    const PeId loc = places_.pe_of(m.dst_rank);
    if (loc != dest && !failed_[loc]) {
      send_to(loc, std::move(m));
      return;
    }
    dead_.push_back(std::move(m));
  }

  // A PE's dispatch of one envelope, on its thread.
  void handle(PeId pe, Message&& m) {
    switch (m.kind) {
      case Message::Kind::UserData: {
        const RankId d = m.dst_rank;
        const int id = m.tag;
        switch (places_.route(pe, m)) {
          case Route::Land:
            land(pe, d, id);
            return;
          case Route::Queued:
            if (ranks_[d].truth != Place{Where::InFlight, pe})
              fail("message " + std::to_string(id) + " queued on PE " +
                   std::to_string(pe) + " for rank " + std::to_string(d) +
                   " at " + str(ranks_[d].truth));
            ranks_[d].queued_order.push_back(id);
            return;
          case Route::Forward:
            if (m.dst_pe == pe || ranks_[d].truth.hosted_on(pe))
              fail("message " + std::to_string(id) + " forwarded from PE " +
                   std::to_string(pe) + " to PE " + std::to_string(m.dst_pe));
            m.src_pe = pe;
            send_to(m.dst_pe, std::move(m));
            return;
        }
        return;
      }
      case Message::Kind::Migration:
        if (node(m.src_pe) != node(pe)) {
          Rank& rk = ranks_[m.dst_rank];
          rk.slot = rk.image;  // the unpack
        }
        admit(pe, m.dst_rank);
        return;
      case Message::Kind::Control:
        if (m.opcode == kAdopt) {
          admit(pe, m.dst_rank);
        } else {
          steal_request(pe, m.tag);
        }
        return;
      case Message::Kind::Aggregate:
        return;
    }
  }

  void land(PeId pe, RankId d, int id) {
    Rank& rk = ranks_[d];
    Sent& s = sent_[static_cast<std::size_t>(id)];
    if (!rk.truth.hosted_on(pe))
      fail("message " + std::to_string(id) + " landed on PE " +
           std::to_string(pe) + " for rank " + std::to_string(d) + " at " +
           str(rk.truth));
    if (++s.landings > 1)
      fail("message " + std::to_string(id) + " landed twice");
    // Matching takes each sender's messages in send order.
    if (s.seq != rk.next_from[s.src] + 1) {
      rk.held[s.src].insert(s.seq);
    } else {
      rk.slot.push_back(id);
      ++rk.next_from[s.src];
      while (rk.held[s.src].erase(rk.next_from[s.src] + 1) != 0) {
        ++rk.next_from[s.src];
        rk.slot.push_back(id_of(s.src, d, rk.next_from[s.src]));
      }
    }
    // The landing wakes the rank if it is parked in a blocking call.
    if (rk.waiting && !rk.queued && rk.truth.where == Where::Resident)
      rk.queued = true;
  }

  int id_of(RankId src, RankId dst, std::uint32_t seq) const {
    for (std::size_t i = 0; i < sent_.size(); ++i)
      if (sent_[i].src == src && sent_[i].dst == dst && sent_[i].seq == seq)
        return static_cast<int>(i);
    return -1;
  }

  // The arrival of a move or an adoption, on `pe`'s thread.
  void admit(PeId pe, RankId r) {
    Rank& rk = ranks_[r];
    if (rk.truth != Place{Where::InFlight, pe})
      fail("rank " + std::to_string(r) + " arrived on PE " +
           std::to_string(pe) + " at " + str(rk.truth));
    std::vector<int> released;
    rk.truth = {Where::Resident, pe};
    places_.arrive(
        pe, r,
        [&] {
          if (rk.queued) fail("rank " + std::to_string(r) + " readied twice");
          rk.queued = true;
        },
        [&](Message&& m) {
          released.push_back(m.tag);
          handle(pe, std::move(m));
        });
    if (released != rk.queued_order)
      fail("rank " + std::to_string(r) +
           "'s arrival queue released out of order or incompletely");
    rk.queued_order.clear();
    note("  rank " + std::to_string(r) + " admitted on PE " +
         std::to_string(pe) + ", " + std::to_string(released.size()) +
         " released");
    if (failed_[pe]) {
      // It reached its dying PE from the backlog: it parks there as a
      // victim, as the PE's own ranks did.
      places_.park(pe, r);
      rk.truth = {Where::Parked, pe};
      rk.queued = false;
      rk.waiting = true;
    }
  }

  // Runtime::ship: the rank, parked or unqueued on `pe`, leaves for `dest`.
  bool ship(PeId pe, RankId r, PeId dest, std::int32_t op) {
    Rank& rk = ranks_[r];
    const bool stopped = stopping_;
    const std::uint64_t how = rng_.next_below(3);
    const bool ok = places_.depart(pe, r, dest, [&] {
      rk.truth = {Where::InFlight, dest};
      if (node(pe) != node(dest)) rk.image = rk.slot;  // the pack
      Message mig;
      mig.kind = Message::Kind::Migration;
      mig.opcode = op;
      mig.src_pe = pe;
      mig.dst_rank = r;
      mig.dst_pe = dest;
      if (how == 1) {
        deferred_.push_back(std::move(mig));
        return;
      }
      send_to(dest, std::move(mig));
      if (how == 2 && !exited_[dest] && !failed_[dest]) {
        // The destination's thread runs now, up to the arrival.
        while (!mbox_[dest].empty() &&
               ranks_[r].truth == Place{Where::InFlight, dest})
          process(dest);
      }
    });
    note("  rank " + std::to_string(r) + " ships PE " + std::to_string(pe) +
         " -> " + std::to_string(dest) + (ok ? "" : ": refused"));
    if (ok && stopped) fail("a move started after stop");
    if (!ok && !stopped) fail("a move was refused before stop");
    return ok;
  }

  // The victim half of a steal, on `pe`'s thread.
  void steal_request(PeId pe, PeId thief) {
    const std::vector<RankId>& hosted = places_.hosted(pe);
    if (hosted.size() < 2 || failed_[pe] || failed_[thief]) return;
    for (const RankId r : hosted) {
      Rank& rk = ranks_[r];
      if (rk.truth.where != Where::Resident || !rk.queued || rk.waiting)
        continue;
      rk.queued = false;  // unqueue
      if (!ship(pe, r, thief, kSteal)) rk.queued = true;
      return;
    }
  }

  void process(PeId pe) {
    Message m = std::move(mbox_[pe].front());
    mbox_[pe].pop_front();
    handle(pe, std::move(m));
  }

  void begin_stop() {
    places_.begin_stop();
    stopping_ = true;
    note("stop");
  }

  // Pe::run_loop's exit rule, then the stop drain of a live PE.
  bool may_exit(PeId pe) const {
    if (exited_[pe] || !mbox_[pe].empty()) return false;
    if (failed_[pe]) return true;
    if (!stopping_ || places_.arriving(pe) != 0) return false;
    for (RankId r = 0; r < nranks_; ++r)
      if (ranks_[r].queued && ranks_[r].truth.hosted_on(pe)) return false;
    return true;
  }

  void exit_pe(PeId pe) {
    exited_[pe] = true;
    note("PE " + std::to_string(pe) + " exits");
    if (failed_[pe]) return;
    for (RankId r = 0; r < nranks_; ++r) {
      if (ranks_[r].truth == Place{Where::InFlight, pe})
        fail("live PE " + std::to_string(pe) + " exited with rank " +
             std::to_string(r) + " in flight to it");
    }
    for (const RankId r : places_.hosted(pe)) {
      if (ranks_[r].truth.where != Where::Finished) ranks_[r].unwound = true;
    }
  }

  // --- the steps -----------------------------------------------------------

  void random_step(bool draining) {
    switch (rng_.next_below(draining ? 6 : 11)) {
      case 0:
        return process_some();
      case 1:
        return post_deferred();
      case 2:
        return run_rank(draining);
      case 3:
        return recover();
      case 4:
        return exit_some();
      case 5:
        return process_some();
      case 6:
      case 7:
        return user_send();
      case 8:
        return request_steal();
      case 9:
        if (rng_.next_below(3) == 0) kill_pe();
        return;
      default:
        if (rng_.next_below(4) == 0) begin_stop();
        return;
    }
  }

  template <typename Pred>
  int pick(int n, Pred&& ok) {
    std::vector<int> c;
    for (int i = 0; i < n; ++i)
      if (ok(i)) c.push_back(i);
    if (c.empty()) return -1;
    return c[rng_.next_below(c.size())];
  }

  void process_some() {
    const PeId pe = pick(npes_, [&](int p) {
      return !exited_[p] && !mbox_[p].empty();
    });
    if (pe < 0) return;
    note("PE " + std::to_string(pe) + " handles an envelope");
    process(pe);
  }

  void post_deferred() {
    if (deferred_.empty()) return;
    const std::size_t i = rng_.next_below(deferred_.size());
    Message m = std::move(deferred_[i]);
    deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
    note("envelope for rank " + std::to_string(m.dst_rank) +
         " posted to PE " + std::to_string(m.dst_pe));
    send_to(m.dst_pe, std::move(m));
  }

  void exit_some() {
    const PeId pe = pick(npes_, [&](int p) { return may_exit(p); });
    if (pe >= 0) exit_pe(pe);
  }

  // A ready rank runs on its PE until it yields, blocks, moves or returns.
  void run_rank(bool draining) {
    const RankId r = pick(nranks_, [&](int i) {
      return ranks_[i].queued && ranks_[i].truth.where == Where::Resident &&
             live(ranks_[i].truth.pe);
    });
    if (r < 0) return;
    Rank& rk = ranks_[r];
    const PeId pe = rk.truth.pe;
    rk.queued = false;
    rk.waiting = false;
    // Before stop it yields, blocks, moves or returns; once stopping it
    // does not yield.
    const std::uint64_t roll = rng_.next_below(8);
    int act = roll < 3 ? 0 : roll < 5 ? 1 : roll < 7 ? 2 : 3;
    if (draining && act == 0) act = 1;
    switch (act) {
      case 0:
        rk.queued = true;
        return;
      case 1:
        note("rank " + std::to_string(r) + " blocks");
        rk.waiting = true;
        return;
      case 2: {
        const PeId dest = pick(npes_, [&](int p) {
          return p != pe && !failed_[p];
        });
        rk.waiting = true;
        if (dest >= 0) ship(pe, r, dest, kPlain);
        return;
      }
      default:
        note("rank " + std::to_string(r) + " finishes");
        places_.finish(pe, r);
        rk.truth = {Where::Finished, pe};
        return;
    }
  }

  void user_send() {
    const RankId s = pick(nranks_, [&](int i) {
      return ranks_[i].truth.where == Where::Resident &&
             live(ranks_[i].truth.pe);
    });
    if (s < 0) return;
    const auto d = static_cast<RankId>(
        rng_.next_below(static_cast<std::uint64_t>(nranks_)));
    const PeId here = ranks_[s].truth.pe;
    Message m;
    m.kind = Message::Kind::UserData;
    m.src_pe = here;
    m.src_rank = s;
    m.dst_rank = d;
    m.seq = ++next_seq_[s][d];
    m.tag = static_cast<std::int32_t>(sent_.size());
    sent_.push_back({s, d, static_cast<std::uint32_t>(m.seq), 0});
    if (places_.place(d) == Place{Where::Resident, here}) {
      note("rank " + std::to_string(s) + " sends " + std::to_string(m.tag) +
           " to rank " + std::to_string(d) + " on its own PE");
      land(here, d, m.tag);
      return;
    }
    const PeId dest = places_.pe_of(d);
    note("rank " + std::to_string(s) + " sends " + std::to_string(m.tag) +
         " to rank " + std::to_string(d) + " via PE " + std::to_string(dest));
    send_to(dest, std::move(m));
  }

  void request_steal() {
    const PeId thief = pick(npes_, [&](int p) {
      if (!live(p)) return false;
      for (const RankId r : places_.hosted(p))
        if (ranks_[r].queued || ranks_[r].truth.where == Where::Parked)
          return false;
      return true;
    });
    if (thief < 0) return;
    const PeId victim =
        pick(npes_, [&](int p) { return p != thief && live(p); });
    if (victim < 0) return;
    note("PE " + std::to_string(thief) + " asks PE " + std::to_string(victim) +
         " for a rank");
    Message m;
    m.kind = Message::Kind::Control;
    m.opcode = kStealRequest;
    m.src_pe = thief;
    m.tag = thief;
    send_to(victim, std::move(m));
  }

  // Its ranks park at their commit point, then the PE is declared dead; it
  // drains its backlog and exits, and recover() re-homes its ranks.
  void kill_pe() {
    if (victim_ >= 0) return;
    int alive = 0;
    for (PeId p = 0; p < npes_; ++p) alive += live(p) ? 1 : 0;
    if (alive < 2) return;
    const PeId v = pick(npes_, [&](int p) { return live(p); });
    for (const RankId r : places_.hosted(v)) {
      Rank& rk = ranks_[r];
      if (rk.truth.where != Where::Resident) continue;
      places_.park(v, r);
      rk.truth = {Where::Parked, v};
      rk.queued = false;
      rk.waiting = true;
    }
    failed_[v] = true;
    victim_ = v;
    note("PE " + std::to_string(v) + " fails");
  }

  // The recovery leader, once the dead PE's loop has exited.
  void recover() {
    if (victim_ < 0 || recovered_ || !exited_[victim_]) return;
    recovered_ = true;
    for (RankId r = 0; r < nranks_; ++r) {
      Rank& rk = ranks_[r];
      if (rk.truth.pe != victim_ || rk.truth.where == Where::Finished)
        continue;
      if (rk.truth.where == Where::Resident)
        fail("rank " + std::to_string(r) + " still resident on a dead PE");
      const PeId dest = pick(npes_, [&](int p) { return !failed_[p]; });
      const bool stopped = stopping_;
      if (!places_.rehome(r, dest)) {
        if (!stopped) fail("a re-home was refused before stop");
        continue;
      }
      if (stopped) fail("a re-home started after stop");
      rk.truth = {Where::InFlight, dest};
      note("rank " + std::to_string(r) + " re-homed to PE " +
           std::to_string(dest));
      Message adopt;
      adopt.kind = Message::Kind::Control;
      adopt.opcode = kAdopt;
      adopt.dst_rank = r;
      send_to(dest, std::move(adopt));
    }
    std::vector<Message> dead = std::move(dead_);
    dead_.clear();
    for (Message& m : dead) {
      const PeId loc = places_.pe_of(m.dst_rank);
      if (failed_[loc]) {
        dead_.push_back(std::move(m));
      } else {
        send_to(loc, std::move(m));
      }
    }
  }

  bool quiet() const {
    if (!deferred_.empty()) return false;
    if (victim_ >= 0 && !recovered_) return false;
    for (PeId p = 0; p < npes_; ++p)
      if (!exited_[p]) return false;
    return true;
  }

  // --- checks --------------------------------------------------------------

  void check() {
    if (!error_.empty()) return;
    for (RankId r = 0; r < nranks_; ++r) {
      const Place p = places_.place(r);
      if (p != ranks_[r].truth)
        return fail("rank " + std::to_string(r) + " is " + str(p) +
                    " in the unit, " + str(ranks_[r].truth) + " in the model");
    }
    for (PeId pe = 0; pe < npes_; ++pe) {
      std::vector<RankId> want;
      int arriving = 0;
      for (RankId r = 0; r < nranks_; ++r) {
        if (ranks_[r].truth.hosted_on(pe)) want.push_back(r);
        if (ranks_[r].truth == Place{Where::InFlight, pe}) ++arriving;
      }
      if (places_.hosted(pe) != want)
        return fail("PE " + std::to_string(pe) + "'s list of hosted ranks "
                    "disagrees with the places");
      if (places_.arriving(pe) != arriving)
        return fail("PE " + std::to_string(pe) + " counts " +
                    std::to_string(places_.arriving(pe)) +
                    " arrivals, the places say " + std::to_string(arriving));
    }
    // A message not landed is in a mailbox, the dead letters, or else its
    // rank's arrival queue.
    std::vector<std::size_t> elsewhere(static_cast<std::size_t>(nranks_));
    const auto count = [&](const Message& m) {
      if (m.kind == Message::Kind::UserData)
        ++elsewhere[static_cast<std::size_t>(m.dst_rank)];
    };
    for (PeId pe = 0; pe < npes_; ++pe)
      for (const Message& m : mbox_[pe]) count(m);
    for (const Message& m : dead_) count(m);
    std::vector<std::size_t> unlanded(static_cast<std::size_t>(nranks_));
    for (const Sent& s : sent_)
      if (s.landings == 0) ++unlanded[static_cast<std::size_t>(s.dst)];
    for (RankId r = 0; r < nranks_; ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (unlanded[i] != elsewhere[i] + places_.waiting(r))
        return fail("rank " + std::to_string(r) + " lost a message (" +
                    std::to_string(unlanded[i]) + " not landed, " +
                    std::to_string(elsewhere[i]) + " in mailboxes, " +
                    std::to_string(places_.waiting(r)) + " waiting)");
      if (places_.waiting(r) != ranks_[r].queued_order.size() ||
          (places_.waiting(r) > 0 && ranks_[r].truth.where != Where::InFlight))
        return fail("rank " + std::to_string(r) + " at " +
                    str(ranks_[r].truth) + " has " +
                    std::to_string(places_.waiting(r)) +
                    " messages waiting for its arrival");
    }
  }

  void final_check() {
    for (RankId r = 0; r < nranks_; ++r) {
      const Rank& rk = ranks_[r];
      const bool with_dead = failed_[rk.truth.pe];
      if (rk.truth.where != Where::Finished && !rk.unwound && !with_dead)
        return fail("rank " + std::to_string(r) + " stranded at " +
                    str(rk.truth));
    }
    // What landed is still in its receive buffer or in the hold, unless an
    // unpack overwrote it.
    for (std::size_t id = 0; id < sent_.size(); ++id) {
      const Sent& s = sent_[id];
      if (s.landings == 0) continue;
      const Rank& rk = ranks_[s.dst];
      const bool kept =
          std::find(rk.slot.begin(), rk.slot.end(), static_cast<int>(id)) !=
              rk.slot.end() ||
          rk.held[s.src].count(s.seq) != 0;
      if (!kept)
        return fail("message " + std::to_string(id) +
                    " landed and was then overwritten by an unpack");
    }
  }

  template <typename F>
  void guarded(F&& f) {
    try {
      f();
    } catch (const std::exception& e) {
      fail(std::string("the unit threw: ") + e.what());
    }
  }

  void note(const std::string& line) {
    if (trace_ != nullptr) *trace_ += "  " + line + "\n";
  }
  void fail(const std::string& why) {
    if (error_.empty()) error_ = why;
  }

  util::SplitMix64 rng_;
  const int npes_;
  const int per_node_;
  const int nranks_;
  RankPlaces places_;
  std::string* trace_;
  std::string error_;

  Rank ranks_[kMaxRanks];
  std::deque<Message> mbox_[kMaxPes];
  std::vector<Message> deferred_;  // move envelopes not yet sent
  std::vector<Message> dead_;      // Cluster's dead letters
  bool failed_[kMaxPes] = {};
  bool exited_[kMaxPes] = {};
  bool stopping_ = false;
  PeId victim_ = -1;
  bool recovered_ = false;
  std::uint32_t next_seq_[kMaxRanks][kMaxRanks] = {};
  std::vector<Sent> sent_;
};

}  // namespace

TEST(RankPlaces, AgreesWithTheModelOnRandomInterleavings) {
  const auto base = static_cast<std::uint32_t>(
      testing::UnitTest::GetInstance()->random_seed());
  for (std::uint32_t i = 0; i < kCases; ++i) {
    const std::uint64_t seed = (std::uint64_t{base} << 32) | i;
    if (World(seed, nullptr).run().empty()) continue;
    std::string trace;
    const std::string diff = World(seed, &trace).run();
    // gtest reads a random seed of 0 as "pick one from the clock".
    const std::string replay =
        base == 0 ? "test_places"
                  : "test_places --gtest_shuffle --gtest_random_seed=" +
                        std::to_string(base);
    FAIL() << "random_seed=" << base << " case seed=" << seed << "\n"
           << trace << diff << "\nreplay: " << replay;
  }
}

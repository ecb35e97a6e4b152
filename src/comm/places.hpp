#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "comm/message.hpp"
#include "util/error.hpp"

namespace apv::comm {

/// What a rank is doing at the PE its place names.
enum class Where : std::uint8_t {
  Resident,  ///< hosted by the PE, and runs there
  InFlight,  ///< on its way to the PE: it has left its old host, and the
             ///< PE has not admitted it yet
  Parked,    ///< an FT victim hosted by the PE, awaiting adoption elsewhere
  Finished,  ///< its entry returned; the PE still hosts it
};

/// Where one rank is.
struct Place {
  Where where = Where::Resident;
  PeId pe = kInvalidPe;

  bool operator==(const Place&) const = default;
  /// Resident, parked or finished on `p`: everything but on its way there.
  bool hosted_on(PeId p) const noexcept {
    return pe == p && where != Where::InFlight;
  }
};

/// What the PE a message for a rank reached does with it (RankPlaces::route).
enum class Route : std::uint8_t {
  Land,     ///< the rank is hosted here
  Queued,   ///< the rank is on its way here: the message waits for it
  Forward,  ///< the rank is elsewhere: msg.dst_pe now names its PE
};

/// The one record of where every rank is, and whether it is moving.
///
/// Each rank has one place word that any thread may read. Each PE has the
/// list of ranks it hosts, written only by that PE's loop thread (and, once
/// a failed PE's loop has exited, by the recovery leader). A place changes
/// on the thread of the PE that hosts the rank or that it moves to:
///
///     seed                               -> Resident(p)
///     Resident(p)  depart, on p          -> InFlight(q)
///     InFlight(q)  arrive, on q          -> Resident(q)
///     Resident(p)  park, on p            -> Parked(p)
///     Parked(p) or InFlight(p), p dead   -> InFlight(q)   (rehome)
///     Resident(p)  finish, on p          -> Finished(p)
///
/// A message for a rank that is in flight to the PE it reached waits in the
/// rank's arrival queue. The arrival readies the rank and then releases the
/// queue in order, so a released message never readies the rank a second
/// time, and none lands before the rank is admitted: between nodes that
/// would write a receive buffer which the unpack then overwrites.
///
/// The unit counts the moves in flight to each PE. Once begin_stop has run
/// it refuses every new move, and the rank stays where it is. A PE's loop
/// does not stop while a move to it is in flight (Pe::run_loop), so at
/// teardown each rank ends up hosted by a PE whose stop drain unwinds it.
class RankPlaces {
 public:
  explicit RankPlaces(int npes)
      : hosted_(static_cast<std::size_t>(npes)),
        arriving_(std::make_unique<std::atomic<int>[]>(
            static_cast<std::size_t>(npes))) {}

  /// Makes each rank r resident on initial[r]. Before any PE loop runs.
  void seed(std::span<const PeId> initial) {
    nranks_ = static_cast<int>(initial.size());
    words_ = std::make_unique<std::atomic<std::uint32_t>[]>(initial.size());
    waiting_.assign(initial.size(), {});
    for (RankId r = 0; r < nranks_; ++r) {
      const PeId pe = initial[static_cast<std::size_t>(r)];
      host(pe, r);
      publish(r, {Where::Resident, pe});
    }
  }

  int num_ranks() const noexcept { return nranks_; }

  /// Where rank `r` is now. Any thread.
  Place place(RankId r) const noexcept {
    const std::uint32_t w = words_[r].load(std::memory_order_acquire);
    return {static_cast<Where>(w & 3u), static_cast<PeId>(w >> 2)};
  }
  PeId pe_of(RankId r) const noexcept { return place(r).pe; }

  /// The ranks `pe` hosts, ascending. Only on pe's loop thread, or while
  /// that loop does not run.
  const std::vector<RankId>& hosted(PeId pe) const {
    return hosted_[static_cast<std::size_t>(pe)];
  }
  /// Moves in flight to `pe`. Any thread.
  int arriving(PeId pe) const noexcept { return arriving_[pe].load(); }
  /// Messages waiting for rank `r` to arrive. On the thread of the PE it is
  /// in flight to.
  std::size_t waiting(RankId r) const {
    return waiting_[static_cast<std::size_t>(r)].size();
  }

  /// On `here`'s thread: rank `r`, resident here, leaves for `dest`; then
  /// `post()` sends what carries it. Returns false, with nothing changed
  /// and nothing posted, once stop has begun.
  template <typename Post>
  bool depart(PeId here, RankId r, PeId dest, Post&& post) {
    expect(r, {Where::Resident, here});
    if (!count_arrival(dest)) return false;
    unhost(here, r);
    // Published before the post, so whatever reaches `dest` first (the
    // arrival or a message for r) finds r on its way there.
    publish(r, {Where::InFlight, dest});
    post();
    return true;
  }

  /// On `here`'s thread: admits rank `r`, in flight here. Calls `ready()`,
  /// then `land(msg)` for each message that waited for r, in arrival order.
  template <typename Ready, typename Land>
  void arrive(PeId here, RankId r, Ready&& ready, Land&& land) {
    expect(r, {Where::InFlight, here});
    host(here, r);
    publish(r, {Where::Resident, here});
    arriving_[here].fetch_sub(1);
    ready();
    std::vector<Message> queue =
        std::exchange(waiting_[static_cast<std::size_t>(r)], {});
    for (Message& msg : queue) land(std::move(msg));
  }

  /// On `here`'s thread: rank `r`, resident here, parks as an FT victim.
  void park(PeId here, RankId r) {
    expect(r, {Where::Resident, here});
    publish(r, {Where::Parked, here});
  }

  /// The recovery leader, once the loop of r's failed PE has exited: FT
  /// victim `r`, parked on that PE or in flight to it, leaves for its
  /// adopter `dest`; its arrival queue goes with it. False once stop has
  /// begun.
  bool rehome(RankId r, PeId dest) {
    const Place p = place(r);
    util::require(p.where == Where::Parked || p.where == Where::InFlight,
                  util::ErrorCode::Internal, "rehome of a rank not parked");
    if (!count_arrival(dest)) return false;
    if (p.where == Where::Parked) {
      unhost(p.pe, r);
    } else {
      arriving_[p.pe].fetch_sub(1);
    }
    publish(r, {Where::InFlight, dest});
    return true;
  }

  /// On `here`'s thread: the entry of rank `r`, resident here, returned.
  void finish(PeId here, RankId r) {
    expect(r, {Where::Resident, here});
    publish(r, {Where::Finished, here});
  }

  /// On `here`'s thread, for `msg`, addressed to msg.dst_rank, that reached
  /// `here`: Land if the rank is hosted here; Queued, with `msg` moved into
  /// the rank's arrival queue, if it is in flight here; else Forward, with
  /// msg.dst_pe set to the rank's PE.
  Route route(PeId here, Message& msg) {
    const Place p = place(msg.dst_rank);
    if (p.hosted_on(here)) return Route::Land;
    if (p.pe == here) {
      waiting_[static_cast<std::size_t>(msg.dst_rank)].push_back(
          std::move(msg));
      return Route::Queued;
    }
    msg.dst_pe = p.pe;
    return Route::Forward;
  }

  /// Refuses every move from now on. Runs before the PE loops are told to
  /// stop.
  void begin_stop() noexcept { stopping_.store(true); }

 private:
  // Counts a move to `dest` unless stop has begun. Both sides are seq_cst
  // (Dekker): if a PE's loop read arriving(dest) == 0 after begin_stop, the
  // store to stopping_ precedes this fetch_add, so the load below sees it
  // and the move is refused; otherwise the loop sees the count.
  bool count_arrival(PeId dest) {
    arriving_[dest].fetch_add(1);
    if (!stopping_.load()) return true;
    arriving_[dest].fetch_sub(1);
    return false;
  }

  void publish(RankId r, Place p) {
    words_[r].store((static_cast<std::uint32_t>(p.pe) << 2) |
                        static_cast<std::uint32_t>(p.where),
                    std::memory_order_release);
  }

  void expect(RankId r, Place p) const {
    util::require(place(r) == p, util::ErrorCode::Internal,
                  "a rank is not where it moves from");
  }

  void host(PeId pe, RankId r) {
    auto& list = hosted_[static_cast<std::size_t>(pe)];
    list.insert(std::lower_bound(list.begin(), list.end(), r), r);
  }
  void unhost(PeId pe, RankId r) {
    auto& list = hosted_[static_cast<std::size_t>(pe)];
    list.erase(std::lower_bound(list.begin(), list.end(), r));
  }

  int nranks_ = 0;
  std::unique_ptr<std::atomic<std::uint32_t>[]> words_;
  std::vector<std::vector<Message>> waiting_;   ///< arrival queues, by rank
  std::vector<std::vector<RankId>> hosted_;     ///< by PE
  std::unique_ptr<std::atomic<int>[]> arriving_;  ///< moves in flight, by PE
  std::atomic<bool> stopping_{false};
};

}  // namespace apv::comm

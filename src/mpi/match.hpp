#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "comm/message.hpp"
#include "mpi/types.hpp"

namespace apv::mpi {

/// Internal tag space: collectives and runtime control traffic use tags
/// with bit 30 set; user tags must stay below this. A wildcard-tag receive
/// never matches an internal tag.
inline constexpr int kInternalTagBase = 1 << 30;
inline constexpr int kMaxUserTag = (1 << 30) - 1;

/// One posted (pending) receive, or a probe's pattern.
struct RecvPost {
  Request req = kRequestNull;
  void* buf = nullptr;
  std::size_t max_bytes = 0;
  int src = kAnySource;  ///< world rank (translated once, when posted), or
                         ///< kAnySource
  int tag = kAnyTag;
  CommId comm = kCommWorld;
  std::uint32_t esize = 0;  ///< receiver-declared element size (checker);
                            ///< 0 = untyped, size verification only
};

/// One rank's point-to-point matching unit: its posted receives, its
/// unexpected messages, the messages it holds back, and the per-peer counts
/// that order them.
///
/// The rule is MPI's. Every user message a rank sends to world rank d,
/// routed or same-PE, carries next_seq(d) as its Message::seq. A message
/// lands at its receiver only after every older one from its sender has
/// landed; one that arrives early (a forward after a migration, a same-PE
/// send behind a routed one still in flight) is held until then. A landing
/// message completes the oldest posted receive it matches, else it queues
/// as unexpected; a posted receive takes the oldest unexpected message it
/// matches, else it queues. A receive matches a message on the same
/// communicator whose source is its own (or kAnySource) and whose tag is its
/// own (or kAnyTag, which no internal tag matches).
///
/// `complete(post, msg, data, bytes)` fills the matched receive `post` from
/// `msg`, whose bytes are `data`/`bytes`. Everything here runs on the owning
/// rank's resident PE thread.
class MatchQueues {
 public:
  enum class Arrival : std::uint8_t {
    Matched,  ///< completed a posted receive
    Queued,   ///< landed as an unexpected message
    Held,     ///< waits for an older message from its sender
  };

  /// The sequence number of this rank's next message to world rank `dst`.
  /// 32-bit: only equality with the receiver's count is ever tested, so a
  /// wrap is harmless.
  std::uint32_t next_seq(int dst) { return ++count_for(sent_, dst); }

  /// Posts `recv`: completes it with the oldest matching unexpected message
  /// (returns true), else queues it.
  template <typename Complete>
  bool post(const RecvPost& recv, Complete&& complete) {
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!matches(recv, *it)) continue;
      complete(recv, *it, it->payload.data(), it->payload.size());
      unexpected_.erase(it);
      return true;
    }
    posted_.push_back(recv);
    return false;
  }

  /// Takes in `msg`, whose bytes are `data`/`bytes`: its payload's, or,
  /// while the payload is still empty, the sender's buffer (a same-PE
  /// send), copied into a payload only if the message must wait. Holds it
  /// if an older message from its sender has not landed, else lands it and
  /// then every held message from that sender now in order.
  template <typename Complete>
  Arrival arrive(comm::Message&& msg, const void* data, std::size_t bytes,
                 Complete&& complete) {
    const int src = msg.src_rank;
    if (static_cast<std::uint32_t>(msg.seq) !=
        count_for(delivered_, src) + 1) {
      own_bytes(msg, data, bytes);
      held_.push_back(std::move(msg));
      return Arrival::Held;
    }
    const Arrival arrival = land(std::move(msg), data, bytes, complete);
    while (!held_.empty()) {
      const std::uint32_t next = delivered_[static_cast<std::size_t>(src)] + 1;
      const auto it = std::find_if(
          held_.begin(), held_.end(), [&](const comm::Message& m) {
            return m.src_rank == src &&
                   static_cast<std::uint32_t>(m.seq) == next;
          });
      if (it == held_.end()) break;
      comm::Message m = std::move(*it);
      held_.erase(it);
      const void* held_data = m.payload.data();
      const std::size_t held_bytes = m.payload.size();
      land(std::move(m), held_data, held_bytes, complete);
    }
    return arrival;
  }

  /// The oldest unexpected message `pattern` would match, or nullptr.
  const comm::Message* probe(const RecvPost& pattern) const {
    for (const comm::Message& m : unexpected_)
      if (matches(pattern, m)) return &m;
    return nullptr;
  }

  std::size_t num_posted() const noexcept { return posted_.size(); }
  std::size_t num_unexpected() const noexcept { return unexpected_.size(); }
  std::size_t num_held() const noexcept { return held_.size(); }

 private:
  static bool matches(const RecvPost& r, const comm::Message& m) noexcept {
    return r.comm == m.comm_id &&
           (r.src == kAnySource || r.src == m.src_rank) &&
           (r.tag == m.tag || (r.tag == kAnyTag && m.tag < kInternalTagBase));
  }

  static std::uint32_t& count_for(std::vector<std::uint32_t>& counts,
                                  int rank) {
    const auto i = static_cast<std::size_t>(rank);
    if (i >= counts.size()) counts.resize(i + 1, 0);
    return counts[i];
  }

  /// A message about to wait must own its bytes: the sender's buffer is
  /// the sender's again once arrive returns.
  static void own_bytes(comm::Message& msg, const void* data,
                        std::size_t bytes) {
    if (msg.payload.size() != bytes)
      msg.payload = comm::Payload::copy_of(data, bytes);
  }

  template <typename Complete>
  Arrival land(comm::Message&& msg, const void* data, std::size_t bytes,
               Complete& complete) {
    ++delivered_[static_cast<std::size_t>(msg.src_rank)];
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (!matches(*it, msg)) continue;
      complete(*it, msg, data, bytes);
      posted_.erase(it);
      return Arrival::Matched;
    }
    own_bytes(msg, data, bytes);
    unexpected_.push_back(std::move(msg));
    return Arrival::Queued;
  }

  /// Deques: the common case (streamed sends against pre-posted windows)
  /// matches and erases at the front, which must not shift the rest.
  std::deque<RecvPost> posted_;
  std::deque<comm::Message> unexpected_;
  std::vector<comm::Message> held_;  ///< usually empty
  std::vector<std::uint32_t> sent_;       ///< by destination world rank
  std::vector<std::uint32_t> delivered_;  ///< landed, by source world rank
};

}  // namespace apv::mpi

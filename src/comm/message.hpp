#pragma once

#include <cstdint>
#include <cstring>
#include <utility>

#include "comm/payload.hpp"
#include "util/bytes.hpp"

namespace apv::comm {

/// Identifies a PE (processing element = one scheduler thread, "core") in
/// the cluster. PEs are globally numbered across nodes.
using PeId = int;
/// Identifies an emulated OS process ("node" in paper Figure 1 terms; in
/// SMP mode one process spans several PEs).
using NodeId = int;
/// A virtual rank number (MPI world rank).
using RankId = int;

inline constexpr PeId kInvalidPe = -1;

/// Wire message between PEs. The comm layer routes by destination PE only;
/// the fields after `dst_pe` are interpreted by the layer above (apv::mpi):
/// point-to-point payloads, collective fragments, migration payloads, and
/// location-update control traffic all travel as Messages.
///
/// `src_pe` is part of the envelope contract: every producer stamps the PE
/// it is sending from (Cluster::send re-stamps forwards), and it is the one
/// field that keys mailbox accounting, aggregation bins, and the netmodel's
/// inter-node check — never re-derived from the rank places at
/// delivery, which can have moved on by then.
struct Message {
  /// Coarse class, for dispatch and accounting.
  enum class Kind : std::uint8_t {
    UserData,     ///< MPI point-to-point / collective payload
    Control,      ///< runtime-internal (location updates, LB commands)
    Migration,    ///< packed rank state
    Aggregate,    ///< bundle of small UserData messages for one dst PE;
                  ///< opcode carries the bundle count, seq the summed
                  ///< payload bytes (netmodel per-message accounting)
  };

  Kind kind = Kind::UserData;
  PeId src_pe = kInvalidPe;
  PeId dst_pe = kInvalidPe;
  RankId src_rank = -1;
  RankId dst_rank = -1;
  std::int32_t comm_id = 0;   ///< communicator context id
  std::int32_t tag = 0;
  std::int32_t opcode = 0;    ///< Control/Migration sub-op; Aggregate count
  std::uint64_t seq = 0;      ///< UserData: the sender's per-(src, dst) rank
                              ///< send count, routed and same-PE sends
                              ///< alike — the order the receiver's
                              ///< mpi::MatchQueues lands them in;
                              ///< Aggregate: summed bundled payload bytes
  std::uint32_t esize = 0;    ///< sender-declared element size (runtime
                              ///< checker stamp); 0 = unstamped, never
                              ///< verified — internal traffic stays 0
  Payload payload;

  std::size_t size_bytes() const noexcept {
    return sizeof(Message) + payload.size();
  }
};

// ---------------------------------------------------------------------------
// Small-message aggregation framing.
//
// An Aggregate envelope's payload is a sequence of 8-byte-aligned entries,
// each a fixed sub-header followed by the bundled message's payload bytes.
// Only UserData messages are ever bundled, so the sub-header carries exactly
// the fields deliver/matching needs.

struct AggSubHeader {
  RankId src_rank;
  RankId dst_rank;
  std::int32_t comm_id;
  std::int32_t tag;
  std::uint64_t seq;
  std::uint32_t bytes;     ///< payload bytes following this header
  std::uint32_t esize;     ///< sender-declared element size (checker stamp)
};
static_assert(sizeof(AggSubHeader) == 32);

inline constexpr std::size_t kAggAlign = 8;
/// An aggregation bin's capacity: the most envelope bytes one bundle holds.
inline constexpr std::size_t kAggBinBytes = 16384;

/// Bytes one bundled message occupies inside an aggregate envelope.
constexpr std::size_t agg_entry_bytes(std::size_t payload_bytes) {
  return sizeof(AggSubHeader) + util::align_up(payload_bytes, kAggAlign);
}

/// True iff a UserData payload of `payload_bytes` fits an empty bin, the
/// one test of which inter-PE user messages travel bundled. A larger one
/// travels alone.
constexpr bool agg_fits(std::size_t payload_bytes) {
  return agg_entry_bytes(payload_bytes) <= kAggBinBytes;
}
static_assert(agg_fits(16352) && !agg_fits(16353));

/// Splits an aggregate envelope back into its bundled messages, invoking
/// `fn(Message&&)` for each in bundling order. Sub-payloads are refcounted
/// views into the envelope's buffer — unbundling copies nothing.
template <typename Fn>
void unbundle(Message&& agg, Fn&& fn) {
  const std::size_t total = agg.payload.size();
  std::size_t off = 0;
  while (off + sizeof(AggSubHeader) <= total) {
    AggSubHeader h;
    std::memcpy(&h, agg.payload.data() + off, sizeof h);
    Message m;
    m.kind = Message::Kind::UserData;
    m.src_pe = agg.src_pe;
    m.dst_pe = agg.dst_pe;
    m.src_rank = h.src_rank;
    m.dst_rank = h.dst_rank;
    m.comm_id = h.comm_id;
    m.tag = h.tag;
    m.seq = h.seq;
    m.esize = h.esize;
    if (h.bytes > 0)
      m.payload = Payload::view(agg.payload, off + sizeof h, h.bytes);
    off += agg_entry_bytes(h.bytes);
    fn(std::move(m));
  }
}

}  // namespace apv::comm

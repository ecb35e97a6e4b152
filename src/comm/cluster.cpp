#include "comm/cluster.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/log.hpp"

namespace apv::comm {

using util::ErrorCode;
using util::require;

namespace {

using util::Ctr;

inline void bump32(std::atomic<std::uint32_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

Cluster::Cluster(const Config& config)
    : config_(config),
      net_(config.options),
      places_(std::max(config.nodes * config.pes_per_node, 0)) {
  require(config.nodes >= 1 && config.pes_per_node >= 1,
          ErrorCode::InvalidArgument, "cluster needs >= 1 node and PE");
  const auto& opt = config.options;
  Pe::Config pe_cfg;
  pe_cfg.sched.lanes = opt.get_string("sched.policy") != "fifo";
  pe_cfg.sched.preempt = opt.get_bool("sched.preempt");
  pe_cfg.sched.quantum_us =
      static_cast<std::uint64_t>(opt.get_int("sched.quantum_us"));

  const int total = config.nodes * config.pes_per_node;
  pes_.reserve(total);
  bins_.resize(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    pes_.push_back(std::make_unique<Pe>(i, node_of(i), config.backend,
                                        pe_cfg, places_));
    bins_[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(total));
    // The aggregation bins owned by this PE are flushed whenever its loop
    // goes idle — the hook runs on the owning thread, so bins stay
    // single-writer.
    pes_.back()->add_idle_hook(
        [this, i] { flush_aggregation(i, FlushCause::Idle); });
  }
  failed_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) failed_[i].store(false);
}

Cluster::~Cluster() { stop_and_join(); }

Pe& Cluster::pe(PeId id) {
  require(id >= 0 && id < num_pes(), ErrorCode::InvalidArgument,
          "PE id out of range");
  return *pes_[id];
}

bool Cluster::on_sender_pe(const Message& msg) const {
  Pe* cur = Pe::current();
  return cur != nullptr && msg.src_pe >= 0 && msg.src_pe < num_pes() &&
         pes_[msg.src_pe].get() == cur;  // not another cluster's or PE's
}

void Cluster::send(Message&& msg) {
  const std::byte* data = msg.payload.data();
  const std::size_t bytes = msg.payload.size();
  send(std::move(msg), data, bytes);
}

void Cluster::send(Message&& msg, const void* data, std::size_t bytes) {
  require(msg.dst_pe >= 0 && msg.dst_pe < num_pes(),
          ErrorCode::InvalidArgument, "message to invalid PE");
  if (msg.src_pe == kInvalidPe) {
    // Producers are supposed to stamp their PE; fill it in when the caller
    // is a PE loop thread of this cluster so the envelope contract holds.
    Pe* cur = Pe::current();
    if (cur != nullptr && cur->id() >= 0 && cur->id() < num_pes() &&
        pes_[cur->id()].get() == cur) {
      msg.src_pe = cur->id();
    }
  }
  // A message that travels on its own needs a payload of its own; one the
  // caller has not given it yet is acquired and filled here.
  const auto own_payload = [&] {
    if (bytes > 0 && msg.payload.empty())
      msg.payload = Payload::copy_of(data, bytes);
  };
  if (failed_[msg.dst_pe].load(std::memory_order_acquire)) {
    own_payload();
    divert(std::move(msg));
    return;
  }
  if (!on_sender_pe(msg)) {
    shared_ctr_.add(Ctr::CommSends);
    shared_ctr_.add(Ctr::CommBytes, bytes);
    own_payload();
    deliver(std::move(msg));
    return;
  }
  util::CounterBlock& ctr = pes_[msg.src_pe]->counters();
  ctr.bump(Ctr::CommSends);
  ctr.bump(Ctr::CommBytes, bytes);
  if (msg.kind == Message::Kind::UserData && msg.dst_pe != msg.src_pe &&
      agg_fits(bytes)) {
    ctr.bump(Ctr::CommAggregated);
    append_to_bin(msg, data, bytes);
    return;
  }
  if (agg_bin(msg.src_pe, msg.dst_pe).count.load(
          std::memory_order_relaxed) > 0) {
    // A non-bundled message is about to overtake the bin for the same
    // destination; flush first so the (sender, destination) FIFO holds.
    ctr.bump(Ctr::CommFlushesOrder);
    flush_bin(msg.src_pe, msg.dst_pe);
  }
  own_payload();
  deliver(std::move(msg));
}

void Cluster::append_to_bin(const Message& msg, const void* data,
                            std::size_t bytes) {
  const PeId src = msg.src_pe;
  const PeId dst = msg.dst_pe;
  AggBin& bin = agg_bin(src, dst);
  util::CounterBlock& ctr = pes_[src]->counters();
  const std::size_t entry = agg_entry_bytes(bytes);
  if (bin.used + entry > kAggBinBytes) {
    ctr.bump(Ctr::CommFlushesSize);
    flush_bin(src, dst);
  }
  if (bin.buf.empty()) bin.buf = Payload::acquire(kAggBinBytes);
  AggSubHeader h{};
  h.src_rank = msg.src_rank;
  h.dst_rank = msg.dst_rank;
  h.comm_id = msg.comm_id;
  h.tag = msg.tag;
  h.seq = msg.seq;
  h.bytes = static_cast<std::uint32_t>(bytes);
  h.esize = msg.esize;
  std::memcpy(bin.buf.data() + bin.used, &h, sizeof h);
  if (bytes > 0)
    std::memcpy(bin.buf.data() + bin.used + sizeof h, data, bytes);
  bin.used += entry;
  bump32(bin.count);
  bin.payload_bytes += bytes;
  // Ship as soon as another entry of this size would not fit, so no
  // message waits for a successor that could not share its envelope.
  if (bin.used + entry > kAggBinBytes) {
    ctr.bump(Ctr::CommFlushesSize);
    flush_bin(src, dst);
  }
}

void Cluster::flush_bin(PeId src, PeId dst) {
  AggBin& bin = agg_bin(src, dst);
  const std::uint32_t n = bin.count.load(std::memory_order_relaxed);
  if (n == 0) return;
  Message env;
  env.kind = Message::Kind::Aggregate;
  env.src_pe = src;
  env.dst_pe = dst;
  env.opcode = static_cast<std::int32_t>(n);
  env.seq = bin.payload_bytes;
  env.payload = std::move(bin.buf);
  env.payload.resize_down(bin.used);
  bin.used = 0;
  bin.count.store(0, std::memory_order_relaxed);
  bin.payload_bytes = 0;
  pes_[src]->counters().bump(Ctr::CommAggEnvelopes);
  deliver(std::move(env));
}

void Cluster::flush_aggregation(PeId src, FlushCause cause) {
  if (src < 0 || src >= num_pes()) return;
  const std::vector<AggBin>& bins = bins_[static_cast<std::size_t>(src)];
  util::CounterBlock& ctr = pes_[src]->counters();
  const Ctr counter = cause == FlushCause::Idle    ? Ctr::CommFlushesIdle
                      : cause == FlushCause::Block ? Ctr::CommFlushesBlock
                                                   : Ctr::CommFlushesOrder;
  for (PeId dst = 0; dst < num_pes(); ++dst) {
    if (bins[static_cast<std::size_t>(dst)].count.load(
            std::memory_order_relaxed) == 0)
      continue;
    ctr.bump(counter);
    flush_bin(src, dst);
  }
}

std::size_t Cluster::pending_aggregated(PeId src) const {
  if (src < 0 || src >= num_pes()) return 0;
  std::size_t n = 0;
  for (const AggBin& bin : bins_[static_cast<std::size_t>(src)]) {
    n += bin.count.load(std::memory_order_relaxed);
  }
  return n;
}

void Cluster::deliver(Message&& msg) {
  if (failed_[msg.dst_pe].load(std::memory_order_acquire)) {
    divert(std::move(msg));
    return;
  }
  if (msg.src_pe != kInvalidPe && node_of(msg.src_pe) != node_of(msg.dst_pe)) {
    if (msg.kind == Message::Kind::Aggregate) {
      // Charge the bundle as its constituent messages: bundling is a
      // software-overhead optimization and must not change the modelled
      // network cost (paper figure shapes depend on per-message latency).
      const auto n = static_cast<std::size_t>(msg.opcode);
      shared_ctr_.add(Ctr::CommInternode, n);
      net_.pace_n(n, n * sizeof(Message) + static_cast<std::size_t>(msg.seq));
    } else {
      shared_ctr_.add(Ctr::CommInternode);
      net_.pace(msg.size_bytes());
    }
  }
  pes_[msg.dst_pe]->post(std::move(msg));
}

void Cluster::divert(Message&& msg) {
  if (msg.kind == Message::Kind::Aggregate) {
    // Bundled messages are plain UserData; divert each one. The sub-payloads
    // are views into the envelope's buffer, so parked messages keep it alive
    // without copying.
    unbundle(std::move(msg),
             [this](Message&& sub) { divert(std::move(sub)); });
    return;
  }
  if (msg.kind == Message::Kind::UserData && msg.dst_rank >= 0 &&
      msg.dst_rank < places_.num_ranks()) {
    const PeId loc = places_.pe_of(msg.dst_rank);
    if (loc != msg.dst_pe && !failed_[loc].load(std::memory_order_acquire)) {
      // The rank has already been re-homed: forward to its live host.
      msg.dst_pe = loc;
      send(std::move(msg));
      return;
    }
    // The rank is (still) placed on a dead PE: park the message until the
    // recovery protocol re-homes the rank and flushes the queue.
    std::lock_guard<std::mutex> lock(dead_mutex_);
    dead_letters_.push_back(std::move(msg));
    return;
  }
  // Control and migration traffic addressed to a dead PE is lost with it.
  shared_ctr_.add(Ctr::CommDropped);
  APV_WARN("cluster", "dropped %s message to failed PE %d",
           msg.kind == Message::Kind::Control ? "control" : "migration",
           msg.dst_pe);
}

void Cluster::fail_pe(PeId pe) {
  require(pe >= 0 && pe < num_pes(), ErrorCode::InvalidArgument,
          "PE id out of range");
  bool expected = false;
  if (!failed_[pe].compare_exchange_strong(expected, true)) return;
  failed_count_.fetch_add(1, std::memory_order_release);
  pes_[pe]->fail();
}

bool Cluster::pe_failed(PeId pe) const {
  require(pe >= 0 && pe < num_pes(), ErrorCode::InvalidArgument,
          "PE id out of range");
  return failed_[pe].load(std::memory_order_acquire);
}

std::vector<bool> Cluster::alive_mask() const {
  std::vector<bool> alive(static_cast<std::size_t>(num_pes()));
  for (int p = 0; p < num_pes(); ++p) {
    alive[static_cast<std::size_t>(p)] =
        !failed_[p].load(std::memory_order_acquire);
  }
  return alive;
}

std::size_t Cluster::flush_dead_letters() {
  std::deque<Message> pending;
  {
    std::lock_guard<std::mutex> lock(dead_mutex_);
    pending.swap(dead_letters_);
  }
  std::size_t delivered = 0;
  std::deque<Message> still_dead;
  for (auto& msg : pending) {
    const PeId loc = msg.dst_rank >= 0 && msg.dst_rank < places_.num_ranks()
                         ? places_.pe_of(msg.dst_rank)
                         : kInvalidPe;
    if (loc == kInvalidPe || failed_[loc].load(std::memory_order_acquire)) {
      still_dead.push_back(std::move(msg));
      continue;
    }
    msg.dst_pe = loc;
    send(std::move(msg));
    ++delivered;
  }
  if (!still_dead.empty()) {
    // Re-park the leftovers in one critical section, ahead of anything
    // diverted while we were flushing (the leftovers are older).
    std::lock_guard<std::mutex> lock(dead_mutex_);
    for (auto it = still_dead.rbegin(); it != still_dead.rend(); ++it) {
      dead_letters_.push_front(std::move(*it));
    }
  }
  return delivered;
}

std::size_t Cluster::dead_letter_count() const {
  std::lock_guard<std::mutex> lock(dead_mutex_);
  return dead_letters_.size();
}

void Cluster::start() {
  require(!started_, ErrorCode::BadState, "cluster already started");
  started_ = true;
  threads_.reserve(pes_.size());
  for (auto& pe : pes_) {
    threads_.emplace_back([p = pe.get()] { p->run_loop(); });
  }
  APV_INFO("cluster", "started %d node(s) x %d PE(s)", config_.nodes,
           config_.pes_per_node);
}

void Cluster::stop_and_join() {
  if (!started_) return;
  places_.begin_stop();
  for (auto& pe : pes_) pe->stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  started_ = false;
}

util::CounterValues Cluster::totals() const {
  util::CounterValues v;
  for (const auto& pe : pes_) v += pe->counters();
  v += shared_ctr_;
  return v;
}

}  // namespace apv::comm

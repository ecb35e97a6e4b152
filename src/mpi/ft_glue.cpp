// Collective buddy checkpointing and automatic failure recovery (the
// fault-tolerance tier glued onto the MPI runtime).
//
// Protocol shape, per epoch E (all ranks execute do_checkpoint_all):
//
//   barrier(world)                 — quiesce: transport is eager and
//                                    mailboxes are FIFO, so after this no
//                                    user message from before E is in
//                                    flight; everything is matched or
//                                    queued in rank state
//   pack                           — each rank parks, and its PE packs
//                                    its slot; the store places the image
//                                    in the owner's and the buddy PE's
//                                    memory
//   commit point                   — every rank asks the FaultInjector
//                                    whether a PE dies at E (idempotent:
//                                    all ranks get the same answer)
//   no fault:   barrier; retire epochs < E; return 0
//   fault at E: victims park message-free and are adopted elsewhere;
//               survivors run recover_from_failure (below); everyone
//               rejoins at the epoch state and returns 1
//
// Survivors never rewind: the fault is declared at the commit point, while
// every rank is still exactly at its epoch state — nothing ran in between.
// Victims are rewound trivially: the adopted image *is* the epoch state.
// That is what makes recovered runs bit-identical to fault-free runs.
//
// Recovery traffic is tagged with the epoch (kCollFtRecover), never with
// per-communicator collective sequence numbers: victims' coll_seq counters
// must stay untouched so the post-recovery barrier lines up across all
// ranks.

#include <string>
#include <vector>

#include "ft/fault_injector.hpp"
#include "ft/recovery.hpp"
#include "lb/strategy.hpp"
#include "mpi/runtime.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace apv::mpi {

using util::ErrorCode;
using util::require;

int Runtime::do_checkpoint_all(RankMpi& rm) {
  auto& priv = *privs_[static_cast<std::size_t>(cluster_->node_of(pe_of(rm)))];
  require(priv.supports_migration(), ErrorCode::CheckpointRefused,
          std::string(core::method_name(priv.kind())) +
              " cannot take recoverable checkpoints: adoption restores a "
              "rank through the migration path, and its segment copies were "
              "allocated by the dynamic linker, not Isomalloc");
  rm.restored = false;
  const std::uint32_t epoch = ++rm.ft_epoch;

  do_barrier(rm, kCommWorld);

  const comm::PeId pe = pe_of(rm);
  block_current(rm, [this, &rm, pe, epoch] {
    pack_checkpoint(pe, rm, epoch, /*buddy=*/true);
  });

  if (!rm.restored) {
    const comm::PeId victim =
        injector_ ? injector_->victim_for_epoch(epoch) : comm::kInvalidPe;
    if (victim == comm::kInvalidPe) {
      do_barrier(rm, kCommWorld);
      // Epoch E committed globally: older images are no longer the fallback.
      ckpt_store_->retire_before(epoch);
      return 0;
    }
    if (pe == victim) {
      // This rank just lost its host. Check that someone survives to run
      // the recovery, then park without touching the network: a survivor
      // PE adopts this ULT, unpacks the epoch image over the slot, and
      // execution rewinds to the pack suspension above.
      bool any_survivor = false;
      for (int r = 0; r < config_.vps; ++r) {
        if (cluster_->places().pe_of(r) != victim) {
          any_survivor = true;
          break;
        }
      }
      require(any_survivor, ErrorCode::BadState,
              "fault killed the PE hosting every rank: no survivor left to "
              "run recovery");
      park_until_rewound(rm, [this, &rm, pe] {
        cluster_->places().park(pe, rm.world_rank);
      });
    }
    recover_from_failure(rm, victim, epoch);
    // Survivors were already at the epoch state when the fault was
    // declared, so no self-rewind is needed — just flag the resume.
    rm.restored = true;
  }
  // Fault path rejoin: adopted ranks resume above with rm.restored set and
  // meet the survivors here, all at the consistent epoch state.
  do_barrier(rm, kCommWorld);
  return 1;
}

void Runtime::recover_from_failure(RankMpi& rm, comm::PeId victim,
                                   std::uint32_t epoch) {
  // Survivor/victim sets are derived from the ranks' places, which are
  // stable during the collective — every survivor computes the same sets
  // and the same leader (lowest surviving rank) without communicating.
  comm::RankPlaces& places = cluster_->places();
  std::vector<int> victims, survivors;
  for (int r = 0; r < config_.vps; ++r) {
    (places.pe_of(r) == victim ? victims : survivors).push_back(r);
  }
  const int me = rm.world_rank;
  const int leader = survivors.front();
  const int gather_tag = internal_tag(kCollFtRecover, 0, epoch);
  const int release_tag = internal_tag(kCollFtRecover, 1, epoch);

  if (me != leader) {
    // Flat survivor barrier: report in, then wait for the leader to finish
    // re-homing the lost ranks before resuming.
    do_send(rm, nullptr, 0, leader, gather_tag, kCommWorld);
    do_recv(rm, nullptr, 0, leader, release_tag, kCommWorld);
    return;
  }

  for (std::size_t i = 1; i < survivors.size(); ++i) {
    do_recv(rm, nullptr, 0, survivors[i], gather_tag, kCommWorld);
  }

  // Wait for each lost rank to pack its epoch image (the store places the
  // buddy copy synchronously), reach its own commit point, and park: its
  // park continuation makes its place Parked once its ULT has switched
  // out. The victim PE must stay alive through this: it may still be
  // receiving barrier tokens of this very epoch — we exited the
  // dissemination barrier knowing only that our own receives completed,
  // not that the victim's did. Declaring the PE dead first would divert
  // those tokens to the dead-letter queue (or strand them: a sender parked
  // in a yield loop holds its aggregation bins), and the victim would
  // never finish the barrier, never pack, and never park.
  for (int lost : victims) {
    while (places.place(lost).where != comm::Where::Parked) do_yield(rm);
  }

  // Every victim now has a buddy copy and a suspended ULT ready for
  // adoption, and needs no further traffic. Declare the PE dead: its loop
  // drains the backlog it already accepted and halts; new traffic is diverted.
  cluster_->fail_pe(victim);
  // Wait for that loop to exit. Its thread was the last to touch what
  // recovery takes over: the slot bytes holding each parked ULT, its list
  // of hosted ranks, the privatization method's per-rank hooks. run_loop's
  // final running_ store (release) against this load (acquire), carried on
  // by the adopt messages below, orders those touches before the re-homing
  // and the adopters' plain-byte unpack. The wait is bounded: every rank
  // on the dead PE is a parked victim, so its loop drains and halts.
  while (cluster_->pe(victim).running()) do_yield(rm);
  // Its memory is gone — and with it every checkpoint copy it owned.
  ckpt_store_->lose_pe(victim);

  // Re-place the lost ranks over the surviving PEs with the LB strategy
  // (GreedyRefine: survivors stay put, victims fill the least-loaded gaps).
  lb::LbStats stats;
  stats.num_pes = cluster_->num_pes();
  stats.rank_load.resize(static_cast<std::size_t>(config_.vps));
  stats.rank_pe.resize(static_cast<std::size_t>(config_.vps));
  for (int r = 0; r < config_.vps; ++r) {
    stats.rank_load[static_cast<std::size_t>(r)] = ranks_[
        static_cast<std::size_t>(r)]->busy_time();
    stats.rank_pe[static_cast<std::size_t>(r)] = places.pe_of(r);
  }
  const ft::RecoveryPlan plan = ft::plan_recovery(
      lb::GreedyRefineLb(), stats, cluster_->alive_mask());

  // Re-home each lost rank (the dead node's departure hook runs here, on
  // its behalf) and dispatch its adoption; then release the stranded
  // messages, which follow it. Once stop has begun a victim stays parked.
  for (const auto& [lost, dest] : plan.placement) {
    privs_[static_cast<std::size_t>(cluster_->node_of(victim))]
        ->rank_departed(rank_state(lost).rc);
    if (places.rehome(lost, dest))
      cluster_->send(control(kCtlFtAdopt, pe_of(rm), dest, lost,
                             static_cast<std::int32_t>(epoch)));
  }
  cluster_->flush_dead_letters();
  APV_INFO("ft", "recovery at epoch %u: PE %d died, %zu rank(s) re-placed "
                 "across %d live PE(s)",
           epoch, victim, victims.size(), cluster_->num_live_pes());

  // Checker interplay: recovery traffic is kCollFtRecover-tagged (never
  // p2p-verified or gated), and check_seq lives on the host heap, so a
  // victim's rewind cannot fork its checker sequence from the survivors' —
  // the checker stays armed across recovery with no false positives. Count
  // the event so tests can assert the checker observed a recovery.
  if (checker_ != nullptr)
    counters(pe_of(rm)).bump(util::Ctr::CheckRecoveriesSeen);

  for (std::size_t i = 1; i < survivors.size(); ++i) {
    do_send(rm, nullptr, 0, survivors[i], release_tag, kCommWorld);
  }
}

}  // namespace apv::mpi

// The check that runtime tests which move ranks make after a job: where
// each rank ended up, read from the one record of it (comm::RankPlaces).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>

#include "mpi/runtime.hpp"

namespace apv::test {

/// After a job that ran to the end: every rank finished, exactly the PE its
/// place names hosts it, and no move is in flight to any PE.
inline void expect_every_rank_finished_in_place(mpi::Runtime& rt) {
  const comm::RankPlaces& places = rt.cluster().places();
  for (int r = 0; r < places.num_ranks(); ++r) {
    const comm::Place p = places.place(r);
    EXPECT_EQ(p.where, comm::Where::Finished) << "rank " << r;
    for (int pe = 0; pe < rt.cluster().num_pes(); ++pe) {
      const auto& hosted = places.hosted(pe);
      EXPECT_EQ(std::count(hosted.begin(), hosted.end(), r),
                pe == p.pe ? 1 : 0)
          << "rank " << r << " on PE " << pe;
    }
  }
  for (int pe = 0; pe < rt.cluster().num_pes(); ++pe)
    EXPECT_EQ(places.arriving(pe), 0) << "PE " << pe;
}

}  // namespace apv::test

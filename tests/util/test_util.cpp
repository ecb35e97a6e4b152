// Unit tests for the util substrate: statistics, options, the counter
// table, byte buffers, alignment helpers, RNG.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mpi/runtime.hpp"
#include "test_programs.hpp"
#include "util/bytes.hpp"
#include "util/counters.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace apv::util;

TEST(Stats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, MatchesNaiveComputation) {
  SplitMix64 rng(42);
  RunningStats s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_range(-50.0, 150.0);
    xs.push_back(x);
    s.add(x);
  }
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / xs.size();
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), m2 / (xs.size() - 1), 1e-6);
  EXPECT_EQ(s.count(), xs.size());
}

TEST(Stats, MinMaxTracking) {
  RunningStats s;
  s.add(3.0);
  s.add(-1.0);
  s.add(7.0);
  EXPECT_EQ(s.min(), -1.0);
  EXPECT_EQ(s.max(), 7.0);
  EXPECT_EQ(s.sum(), 9.0);
}

TEST(Stats, MergeEqualsSequential) {
  SplitMix64 rng(7);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double();
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Stats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 5.0);
}

TEST(Stats, QuantileInterpolation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_NEAR(quantile(xs, 0.25), 2.0, 1e-12);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(Stats, ImbalanceRatio) {
  EXPECT_EQ(imbalance_ratio({}), 1.0);
  EXPECT_EQ(imbalance_ratio({0.0, 0.0}), 1.0);
  EXPECT_NEAR(imbalance_ratio({1.0, 1.0, 1.0, 1.0}), 1.0, 1e-12);
  EXPECT_NEAR(imbalance_ratio({4.0, 0.0, 0.0, 0.0}), 4.0, 1e-12);
}

TEST(Options, SetAndGetTyped) {
  Options opts;
  opts.set("net.latency_us", "2.5");
  opts.set("pie.fixup", "exact");
  opts.set("loader.patched_glibc", "true");
  opts.set_int("ft.pe", 3);
  opts.set("check.deadlock_s", "0.125");
  opts.set_bool("util.dump_counters", true);
  EXPECT_DOUBLE_EQ(opts.get_double("net.latency_us"), 2.5);
  EXPECT_EQ(opts.get_string("pie.fixup"), "exact");
  EXPECT_TRUE(opts.get_bool("loader.patched_glibc"));
  EXPECT_EQ(opts.get_int("ft.pe"), 3);
  EXPECT_DOUBLE_EQ(opts.get_double("check.deadlock_s"), 0.125);
  EXPECT_TRUE(opts.get_bool("util.dump_counters"));
  EXPECT_EQ(Options().get_int("sched.quantum_us"), 200);  // the default
}

TEST(Options, EveryDefaultIsAccepted) {
  for (const OptionSpec& s : option_table())
    EXPECT_NO_THROW(Options().set(std::string(s.key), std::string(s.def)))
        << s.key;
}

TEST(Options, BoolSpellings) {
  Options opts;
  for (const char* v : {"1", "true", "yes", "on"}) {
    opts.set("ft.delta", v);
    EXPECT_TRUE(opts.get_bool("ft.delta")) << v;
  }
  for (const char* v : {"0", "false", "no", "off"}) {
    opts.set("ft.delta", v);
    EXPECT_FALSE(opts.get_bool("ft.delta")) << v;
  }
  EXPECT_THROW(opts.set("ft.delta", "banana"), ApvError);
}

namespace {

// Runs `f`, which must throw InvalidArgument with `key` in the message.
template <typename F>
void expect_rejected(F f, const std::string& key) {
  try {
    f();
    ADD_FAILURE() << "no error for " << key;
  } catch (const ApvError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument) << e.what();
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(Options, RejectsUndeclaredKey) {
  expect_rejected([] { Options().set("comm.inlin", "on"); }, "comm.inlin");
}

TEST(Options, RejectsBadBool) {
  expect_rejected([] { Options().set("ft.delta", "banana"); }, "ft.delta");
}

TEST(Options, RejectsValueOutsideList) {
  expect_rejected([] { Options().set("coll.algo", "heir"); }, "coll.algo");
}

TEST(Options, RejectsMalformedNumber) {
  expect_rejected([] { Options().set("sched.quantum_us", "12abc"); },
                  "sched.quantum_us");
}

TEST(Options, RejectsValueBelowMinimum) {
  expect_rejected([] { Options().set("sched.quantum_us", "0"); },
                  "sched.quantum_us");
}

// Explicit option, then the environment alias (checked like a set value),
// then the default; an empty variable counts as unset.
TEST(Options, EnvAlias) {
  const char* old = std::getenv("APV_SCHED_STEAL");
  const std::string saved = old != nullptr ? old : "";
  setenv("APV_SCHED_STEAL", "maybe", 1);
  expect_rejected([] { Options().get_bool("sched.steal"); }, "sched.steal");
  setenv("APV_SCHED_STEAL", "on", 1);
  Options opts;
  EXPECT_TRUE(opts.get_bool("sched.steal"));
  opts.set("sched.steal", "off");
  EXPECT_FALSE(opts.get_bool("sched.steal"));
  setenv("APV_SCHED_STEAL", "", 1);
  EXPECT_FALSE(Options().get_bool("sched.steal"));
  setenv("APV_SCHED_STEAL", saved.c_str(), 1);  // "" reads as unset
}

// The knobs replaced by constants or deleted with their code stay deleted:
// setting one is an error, not a silent no-op.
TEST(Options, DeletedKnobsAreUndeclared) {
  for (const char* key :
       {"comm.mailbox", "comm.pool", "comm.agg_threshold",
        "comm.agg_max_bytes", "comm.mailbox_slots", "comm.drain_batch",
        "comm.hipri_bytes", "sched.starve_limit", "sched.steal_timeout_us",
        "sched.steal_batch", "coll.rab_cutoff", "coll.vec_cutoff",
        "transport.spin_us", "transport.nap_us", "transport.ring_slots",
        "transport.backend", "transport.procs", "transport.proc",
        "transport.job", "transport.arena_mb", "transport.hb_ms",
        "transport.hb_timeout_ms", "transport.liveness_ms",
        "transport.send_timeout_ms", "transport.rendezvous_ms",
        "transport.max_ranks", "ft.max_chain"})
    expect_rejected([key] { Options().set(key, "1"); }, key);
}

// README.md's "Options" table and option_table() list the same keys: every
// declared key has a row showing its default and env alias, and every row
// names a declared key.
TEST(Options, ReadmeTableMatchesDeclarations) {
  std::ifstream in(std::string(APV_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in);
  std::map<std::string, std::string> rows;  // key -> its table row
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Options";
    if (in_section && line.rfind("| `", 0) == 0)
      rows[line.substr(3, line.find('`', 3) - 3)] = line;
  }
  for (const OptionSpec& s : option_table()) {
    const auto row = rows.find(std::string(s.key));
    if (row == rows.end()) {
      ADD_FAILURE() << "README has no row for " << s.key;
      continue;
    }
    const std::string def = s.def.empty() ? "\"\"" : std::string(s.def);
    const std::string env =
        s.env != nullptr ? "`" + std::string(s.env) + "`" : "";
    EXPECT_NE(row->second.find(" | `" + def + "` | " + env + " | "),
              std::string::npos)
        << row->second;
    rows.erase(row);
  }
  for (const auto& [key, row] : rows)
    ADD_FAILURE() << "README row for an undeclared option: " << row;
}

TEST(Counters, TableNamesAreNonEmptyAndUnique) {
  std::set<std::string_view> names;
  for (const CounterSpec& s : kCounterTable) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.doc.empty()) << s.name;
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
  }
}

// A small job's all_counters() names every table slot, zeros included,
// with the value the typed read gives, plus the counters no PE owns.
TEST(Counters, AllCountersNamesEverySlotAtItsTypedValue) {
  namespace mpi = apv::mpi;
  const apv::img::ProgramImage image = apv::test::build_hello();
  mpi::RuntimeConfig cfg;
  cfg.pes_per_node = 2;
  cfg.vps = 4;
  cfg.method = apv::core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("check.mode", "warn");  // for check_diagnoses
  cfg.options.set("ft.delta", "on");      // for the dirty tracker's counts
  mpi::Runtime rt(image, cfg);
  rt.run();
  const Counters all = rt.all_counters();
  const CounterValues typed = rt.cluster().totals();
  for (std::size_t i = 0; i < kCtrCount; ++i) {
    const auto c = static_cast<Ctr>(i);
    const std::string name(counter_spec(c).name);
    const auto it = all.all().find(name);
    ASSERT_NE(it, all.all().end()) << name;
    EXPECT_EQ(it->second, typed[c]) << name;
  }
  const char* const component_local[] = {
      "comm.mailbox_ring_pushes", "comm.mailbox_overflow_pushes",
      "pool.hits", "pool.misses", "pool.adopted", "pool.returns",
      "pool.drops", "pool.bytes_copied", "ckpt_tracker_faults",
      "ckpt_tracker_predirtied", "ckpt_store_puts", "ckpt_store_fetches",
      "check_diagnoses"};
  for (const char* name : component_local)
    EXPECT_EQ(all.all().count(name), 1u) << name;
  EXPECT_EQ(all.all().size(), kCtrCount + std::size(component_local));
  EXPECT_GT(typed[Ctr::ContextSwitches], 0u);
}

TEST(Bytes, AlignUp) {
  EXPECT_EQ(align_up(0, 16), 0u);
  EXPECT_EQ(align_up(1, 16), 16u);
  EXPECT_EQ(align_up(16, 16), 16u);
  EXPECT_EQ(align_up(17, 16), 32u);
  EXPECT_EQ(align_up(4095, 4096), 4096u);
}

TEST(Bytes, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Bytes, ByteBufferRoundTrip) {
  ByteBuffer buf;
  buf.put<std::uint32_t>(0xdeadbeef);
  buf.put<double>(3.25);
  const char text[] = "hello";
  buf.put_bytes(text, sizeof text);
  buf.rewind();
  EXPECT_EQ(buf.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(buf.get<double>(), 3.25);
  char out[sizeof text];
  buf.get_bytes(out, sizeof out);
  EXPECT_STREQ(out, "hello");
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(Bytes, ByteBufferClear) {
  ByteBuffer buf;
  buf.put<int>(1);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
}

TEST(Rng, Deterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BoundsRespected) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double r = rng.next_range(2.0, 5.0);
    EXPECT_GE(r, 2.0);
    EXPECT_LT(r, 5.0);
  }
}

TEST(Error, CodeNamesAndRequire) {
  EXPECT_STREQ(error_code_name(ErrorCode::NotSupported), "NotSupported");
  EXPECT_STREQ(error_code_name(ErrorCode::MigrationRefused),
               "MigrationRefused");
  try {
    require(false, ErrorCode::LimitExceeded, "the detail");
    FAIL() << "require did not throw";
  } catch (const ApvError& e) {
    EXPECT_EQ(e.code(), ErrorCode::LimitExceeded);
    EXPECT_NE(std::string(e.what()).find("the detail"), std::string::npos);
  }
  EXPECT_NO_THROW(require(true, ErrorCode::Internal, "unused"));
}

// Unit tests for the core privatization layer: capability registry,
// variable-access binding per method, the Privatizer rank lifecycle, the
// method-specific refusals (SMP, linker, namespace caps), PIEglobals
// fix-up modes including the scan's false-positive hazard, function-pointer
// translation, and pieglobals_find.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/access.hpp"
#include "core/funcptr.hpp"
#include "core/methods.hpp"
#include "core/privatizer.hpp"
#include "image/loader.hpp"
#include "isomalloc/arena.hpp"
#include "isomalloc/pack.hpp"
#include "proc_maps.hpp"
#include "util/error.hpp"

using namespace apv;
using util::ApvError;
using util::ErrorCode;

namespace {

void* noop_main(void* arg) { return arg; }
void noop_body(void*) {}

img::ProgramImage kinds_image() {
  img::ImageBuilder b("kinds_core");
  b.add_global<int>("mutable_global", 5);
  b.add_global<int>("static_var", 6, {.is_static = true});
  b.add_global<int>("tls_var", 7, {.is_tls = true});
  b.add_global<int>("const_var", 8, {.is_const = true});
  b.add_function("mpi_main", &noop_main);
  return b.build();
}

struct Fixture {
  explicit Fixture(core::Method method, util::Options extra = {},
                   int pes_in_process = 1)
      : arena({.slot_size = std::size_t{8} << 20, .max_slots = 24}),
        image(kinds_image()),
        loader(extra) {
    core::ProcessEnv env;
    env.process_id = 0;
    env.pes_in_process = pes_in_process;
    env.image = &image;
    env.loader = &loader;
    env.arena = &arena;
    env.options = extra;
    priv = std::make_unique<core::Privatizer>(method, std::move(env));
  }

  core::RankContext* make_rank(int r) {
    core::Privatizer::RankParams params;
    params.world_rank = r;
    params.body = &noop_body;
    return priv->create_rank(params);
  }

  iso::IsoArena arena;
  img::ProgramImage image;
  img::Loader loader;
  std::unique_ptr<core::Privatizer> priv;
};

}  // namespace

TEST(Capabilities, TableHasAllEightRows) {
  const auto rows = core::capability_table();
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0].name, "Manual refactoring");
  EXPECT_EQ(rows.back().name, "PIEglobals");
  // The headline comparison: only PIEglobals among the new runtime methods
  // is automatic, SMP-capable, AND migratable.
  int good_auto_smp_migratable = 0;
  for (const auto& c : rows) {
    if (c.automation == "Good" && c.smp_support && c.migration_support &&
        c.runtime_method) {
      ++good_auto_smp_migratable;
      EXPECT_EQ(c.name, "PIEglobals");
    }
  }
  EXPECT_EQ(good_auto_smp_migratable, 1);
}

TEST(Capabilities, MethodNamesRoundTrip) {
  for (core::Method m :
       {core::Method::None, core::Method::TLSglobals, core::Method::Swapglobals,
        core::Method::PIPglobals, core::Method::FSglobals,
        core::Method::PIEglobals}) {
    EXPECT_EQ(core::method_from_string(core::method_name(m)), m);
  }
  EXPECT_THROW(core::method_from_string("magicglobals"), ApvError);
}

// --- binding matrix ---------------------------------------------------------

struct BindCase {
  core::Method method;
  const char* var;
  core::AccessPath expected;
};

class BindMatrix : public ::testing::TestWithParam<BindCase> {};

TEST_P(BindMatrix, PathMatchesMethodSemantics) {
  const BindCase& c = GetParam();
  util::Options opts;
  opts.set("swap.linker_version", "2.23");
  Fixture fx(c.method, opts);
  const core::VarAccess a = fx.priv->bind(c.var);
  EXPECT_EQ(a.path, c.expected)
      << core::method_name(c.method) << " / " << c.var << " got "
      << core::access_path_name(a.path);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BindMatrix,
    ::testing::Values(
        // Baseline: everything shared (RankData resolves through the shared
        // primary base; SharedDirect pins immutable data).
        BindCase{core::Method::None, "mutable_global",
                 core::AccessPath::RankData},
        BindCase{core::Method::None, "const_var",
                 core::AccessPath::SharedDirect},
        // TLSglobals privatizes exactly the tagged variables.
        BindCase{core::Method::TLSglobals, "tls_var",
                 core::AccessPath::TlsBase},
        BindCase{core::Method::TLSglobals, "mutable_global",
                 core::AccessPath::RankData},
        // Swapglobals: GOT-visible globals via the active GOT; statics leak.
        BindCase{core::Method::Swapglobals, "mutable_global",
                 core::AccessPath::GotIndirect},
        BindCase{core::Method::Swapglobals, "static_var",
                 core::AccessPath::RankData},
        // PIE-family: everything through the rank's own segments.
        BindCase{core::Method::PIPglobals, "mutable_global",
                 core::AccessPath::RankData},
        BindCase{core::Method::PIPglobals, "static_var",
                 core::AccessPath::RankData},
        BindCase{core::Method::FSglobals, "mutable_global",
                 core::AccessPath::RankData},
        BindCase{core::Method::PIEglobals, "static_var",
                 core::AccessPath::RankData},
        BindCase{core::Method::PIEglobals, "tls_var",
                 core::AccessPath::TlsBase}),
    [](const ::testing::TestParamInfo<BindCase>& info) {
      return std::string(core::method_name(info.param.method)) + "_" +
             info.param.var;
    });

// --- refusals ---------------------------------------------------------------

TEST(Refusals, SwapglobalsRejectsSmpMode) {
  try {
    Fixture fx(core::Method::Swapglobals, {}, /*pes_in_process=*/4);
    FAIL() << "SMP mode not refused";
  } catch (const ApvError& e) {
    EXPECT_EQ(e.code(), ErrorCode::NotSupported);
  }
}

TEST(Refusals, SwapglobalsRejectsNewLinkerUnlessPatched) {
  util::Options newld;
  newld.set("swap.linker_version", "2.38");
  EXPECT_THROW(Fixture(core::Method::Swapglobals, newld), ApvError);
  newld.set_bool("swap.linker_patched", true);
  EXPECT_NO_THROW(Fixture(core::Method::Swapglobals, newld));
}

TEST(Refusals, TlsGlobalsRequiresCapableCompiler) {
  util::Options icc;
  icc.set("tls.compiler", "icc");
  EXPECT_THROW(Fixture(core::Method::TLSglobals, icc), ApvError);
}

TEST(Refusals, PieRequiresPieBuild) {
  img::ImageBuilder b("nonpie2");
  b.add_global<int>("x", 0);
  b.add_function("mpi_main", &noop_main);
  b.set_pie(false);
  const img::ProgramImage image = b.build();
  iso::IsoArena arena({.slot_size = std::size_t{8} << 20, .max_slots = 4});
  img::Loader loader;
  core::ProcessEnv env;
  env.image = &image;
  env.loader = &loader;
  env.arena = &arena;
  EXPECT_THROW(core::Privatizer(core::Method::PIEglobals, env), ApvError);
}

TEST(Refusals, PipNamespaceCapSurfacesAtRankCreation) {
  Fixture fx(core::Method::PIPglobals);
  std::vector<core::RankContext*> rcs;
  for (int r = 0; r < img::Loader::kGlibcNamespaceCap; ++r) {
    rcs.push_back(fx.make_rank(r));
  }
  try {
    fx.make_rank(99);
    FAIL() << "13th dlmopen namespace not refused";
  } catch (const ApvError& e) {
    EXPECT_EQ(e.code(), ErrorCode::LimitExceeded);
  }
  for (auto* rc : rcs) fx.priv->destroy_rank(rc);
}

TEST(Refusals, PipAndFsRefuseMigrationHooks) {
  for (core::Method m : {core::Method::PIPglobals, core::Method::FSglobals}) {
    Fixture fx(m);
    core::RankContext* rc = fx.make_rank(0);
    EXPECT_FALSE(fx.priv->supports_migration());
    EXPECT_THROW(fx.priv->rank_departed(rc), ApvError);
    fx.priv->destroy_rank(rc);
  }
}

// --- rank lifecycle ---------------------------------------------------------

class RankLifecycle : public ::testing::TestWithParam<core::Method> {};

TEST_P(RankLifecycle, CreateProvidesWorkingPrivateView) {
  Fixture fx(GetParam());
  core::RankContext* rc = fx.make_rank(0);
  EXPECT_NE(rc->instance, nullptr);
  EXPECT_NE(rc->data_base, nullptr);
  EXPECT_NE(rc->heap, nullptr);
  EXPECT_NE(rc->ult, nullptr);
  EXPECT_TRUE(rc->heap->check_integrity());
  // The ULT's stack lives inside the rank's slot.
  EXPECT_TRUE(fx.arena.contains(rc->slot, rc->ult->stack_base()));
  fx.priv->destroy_rank(rc);
  EXPECT_EQ(fx.arena.slots_in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, RankLifecycle,
    ::testing::Values(core::Method::None, core::Method::TLSglobals,
                      core::Method::Swapglobals, core::Method::PIPglobals,
                      core::Method::FSglobals, core::Method::PIEglobals),
    [](const ::testing::TestParamInfo<core::Method>& info) {
      return core::method_name(info.param);
    });

TEST(PieRank, SegmentCopiesLiveInIsomallocAndAreFixedUp) {
  Fixture fx(core::Method::PIEglobals);
  core::RankContext* rc = fx.make_rank(0);
  const img::ImageInstance& prim = fx.priv->primary();
  // The rank's segments are inside its slot — the migratability property.
  EXPECT_TRUE(fx.arena.contains(rc->slot, rc->instance->code_base()));
  EXPECT_TRUE(fx.arena.contains(rc->slot, rc->instance->data_base()));
  EXPECT_NE(rc->instance->code_base(), prim.code_base());
  // The copied GOT points into the copy, not the primary.
  const img::VarDecl& v =
      fx.image.var(fx.image.var_id("mutable_global"));
  const auto got_target = rc->instance->got()[v.got_index];
  EXPECT_TRUE(fx.arena.contains(
      rc->slot, reinterpret_cast<const void*>(got_target)));
  fx.priv->destroy_rank(rc);
}

// --- function-pointer translation and pieglobals_find -----------------------

TEST(FuncPtr, HandleRoundTripsAcrossRanks) {
  Fixture fx(core::Method::PIEglobals);
  core::RankContext* r0 = fx.make_rank(0);
  core::RankContext* r1 = fx.make_rank(1);
  // An address taken from rank 0's copy...
  void* addr0 =
      r0->instance->func_addr(fx.image.func_id("mpi_main"));
  const core::FuncHandle h = core::to_handle(fx.loader.registry(), addr0);
  ASSERT_TRUE(h.valid());
  // ...localizes to a *different* address in rank 1's copy...
  void* addr1 = core::localize(h, *r1);
  EXPECT_NE(addr0, addr1);
  EXPECT_TRUE(fx.arena.contains(r1->slot, addr1));
  // ...and resolves to the same native body through either copy.
  EXPECT_EQ(core::native_of(h, *r0), &noop_main);
  EXPECT_EQ(core::native_of(h, *r1), &noop_main);
  fx.priv->destroy_rank(r0);
  fx.priv->destroy_rank(r1);
}

TEST(FuncPtr, ForeignAddressRejected) {
  Fixture fx(core::Method::PIEglobals);
  int local = 0;
  EXPECT_THROW(core::to_handle(fx.loader.registry(), &local), ApvError);
}

TEST(PieglobalsFind, TranslatesCodeAndDataBackToPrimary) {
  Fixture fx(core::Method::PIEglobals);
  core::RankContext* rc = fx.make_rank(0);
  const img::ImageInstance& prim = fx.priv->primary();

  const void* priv_code = rc->instance->code_base() + 0x40;
  EXPECT_EQ(core::pieglobals_find(fx.loader.registry(), priv_code),
            prim.code_base() + 0x40);
  const void* priv_data = rc->instance->data_base() + 8;
  EXPECT_EQ(core::pieglobals_find(fx.loader.registry(), priv_data),
            prim.data_base() + 8);
  int unrelated = 0;
  EXPECT_EQ(core::pieglobals_find(fx.loader.registry(), &unrelated), nullptr);
  fx.priv->destroy_rank(rc);
}

// --- fix-up modes ------------------------------------------------------------

namespace {
void bait_ctor(img::CtorContext& ctx) {
  auto* block = static_cast<void**>(ctx.ctor_malloc(4 * sizeof(void*)));
  ctx.set_ptr("block", block);
  ctx.write_heap_ptr(block, 0, ctx.func_ptr("mpi_main"));
  // An integer that happens to equal a code address: NOT a pointer.
  ctx.set<std::uintptr_t>(
      "bait",
      reinterpret_cast<std::uintptr_t>(ctx.instance().code_base()) + 0x80);
}

img::ProgramImage bait_image() {
  img::ImageBuilder b("bait");
  b.add_global<void*>("block", nullptr);
  b.add_global<std::uintptr_t>("bait", 0);
  b.add_function("mpi_main", &noop_main);
  b.add_constructor(&bait_ctor);
  return b.build();
}

std::uintptr_t bait_value_of(const img::ProgramImage& image,
                             const core::RankContext* rc) {
  std::uintptr_t v;
  std::memcpy(&v, rc->data_base + image.var(image.var_id("bait")).offset,
              sizeof v);
  return v;
}
}  // namespace

TEST(PieFixup, ScanRewritesTruePointersAndTheBait) {
  const img::ProgramImage image = bait_image();
  iso::IsoArena arena({.slot_size = std::size_t{8} << 20, .max_slots = 4});
  img::Loader loader;
  core::ProcessEnv env;
  env.image = &image;
  env.loader = &loader;
  env.arena = &arena;
  env.options.set("pie.fixup", "scan");
  core::Privatizer priv(core::Method::PIEglobals, std::move(env));
  core::Privatizer::RankParams params;
  params.body = &noop_body;
  core::RankContext* rc = priv.create_rank(params);

  // True pointer chain privatized: block -> rank copy, fn ptr -> rank code.
  void* block;
  std::memcpy(&block, rc->data_base + image.var(image.var_id("block")).offset,
              sizeof block);
  EXPECT_TRUE(arena.contains(rc->slot, block));
  void* fn = *static_cast<void**>(block);
  EXPECT_TRUE(rc->instance->contains_code(fn));
  // ...but the integer bait was also rewritten: the documented false
  // positive of the scan.
  EXPECT_TRUE(arena.contains(
      rc->slot, reinterpret_cast<void*>(bait_value_of(image, rc))));
  priv.destroy_rank(rc);
}

TEST(PieFixup, ExactModePreservesTheBait) {
  const img::ProgramImage image = bait_image();
  iso::IsoArena arena({.slot_size = std::size_t{8} << 20, .max_slots = 4});
  img::Loader loader;
  core::ProcessEnv env;
  env.image = &image;
  env.loader = &loader;
  env.arena = &arena;
  env.options.set("pie.fixup", "exact");
  core::Privatizer priv(core::Method::PIEglobals, std::move(env));
  const img::ImageInstance& prim = priv.primary();
  const std::uintptr_t original =
      reinterpret_cast<std::uintptr_t>(prim.code_base()) + 0x80;

  core::Privatizer::RankParams params;
  params.body = &noop_body;
  core::RankContext* rc = priv.create_rank(params);
  // True pointers still fixed...
  void* block;
  std::memcpy(&block, rc->data_base + image.var(image.var_id("block")).offset,
              sizeof block);
  EXPECT_TRUE(arena.contains(rc->slot, block));
  EXPECT_TRUE(rc->instance->contains_code(*static_cast<void**>(block)));
  // ...and the integer is untouched.
  EXPECT_EQ(bait_value_of(image, rc), original);
  priv.destroy_rank(rc);
}

TEST(PieShareCode, EachRankMapsTheCodeAtItsOwnAddress) {
  util::Options opts;
  opts.set_bool("pie.share_code", true);
  Fixture fx(core::Method::PIEglobals, opts);
  const img::ImageInstance& prim = fx.priv->primary();
  const std::size_t code_size = fx.image.code_size();
  core::RankContext* r0 = fx.make_rank(0);
  core::RankContext* r1 = fx.make_rank(1);
  std::byte* code0 = r0->instance->code_base();
  std::byte* code1 = r1->instance->code_base();

  EXPECT_NE(code0, code1);
  for (core::RankContext* rc : {r0, r1}) {
    std::byte* code = rc->instance->code_base();
    const auto* base = static_cast<std::byte*>(fx.arena.slot_base(rc->slot));
    // Inside the rank's own slot, past everything an image of it carries.
    EXPECT_TRUE(fx.arena.contains(rc->slot, code));
    EXPECT_TRUE(fx.arena.contains(rc->slot, code + code_size - 1));
    const auto at = static_cast<std::size_t>(code - base);
    EXPECT_LE(rc->heap->capacity(), at);  // the heap ends below the window
    EXPECT_GE(at, rc->heap->high_water() + iso::SlotHeap::kCarrySlackBytes);
    EXPECT_GE(at, iso::packed_payload_size(fx.arena, rc->slot,
                                           iso::PackMode::FullSlot));
    // The primary's bytes, from the one descriptor; pieglobals_find maps
    // them back to the primary.
    EXPECT_EQ(std::memcmp(code, prim.code_base(), code_size), 0);
    EXPECT_NE(test::mapping_at(code).path.find("apv-pie-code"),
              std::string::npos);
    EXPECT_EQ(core::pieglobals_find(fx.loader.registry(), code + 0x80),
              prim.code_base() + 0x80);
  }

  // A write through rank 0's window (made writable the way the write
  // barrier's disarm does) stays rank 0's.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  ASSERT_EQ(mprotect(code0, page, PROT_READ | PROT_WRITE), 0);
  code0[0x10] = ~code0[0x10];
  EXPECT_NE(code0[0x10], prim.code_base()[0x10]);
  EXPECT_EQ(code1[0x10], prim.code_base()[0x10]);

  // Released and acquired again, the slot's top is the anonymous
  // reservation once more: zeroes, no file behind them.
  const iso::SlotId slot0 = r0->slot;
  fx.priv->destroy_rank(r0);
  const iso::SlotId again = fx.arena.acquire_slot();
  ASSERT_EQ(again, slot0);
  EXPECT_EQ(fx.arena.slot_extent(again), fx.arena.slot_size());
  const test::Mapping top = test::mapping_at(code0);
  EXPECT_TRUE(top.found);
  EXPECT_EQ(top.inode, 0u);
  EXPECT_EQ(top.path, "");
  EXPECT_TRUE(std::all_of(code0, code0 + code_size,
                          [](std::byte b) { return b == std::byte{0}; }));
  fx.arena.release_slot(again);
  fx.priv->destroy_rank(r1);
}

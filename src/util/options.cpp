#include "util/options.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/error.hpp"

namespace apv::util {

namespace {

using enum OptionType;

constexpr double kNoMin = -std::numeric_limits<double>::infinity();

// Every option apv reads. Keep README.md's "Options" table in step: a test
// checks it against this one, both ways.
constexpr OptionSpec kOptions[] = {
    // key, type, default, accepted values, minimum, env alias, doc
    {"comm.inline", Bool, "on", "", kNoMin, nullptr,
     "same-PE sends skip the mailbox; off routes every one (seed-exact)"},
    {"sched.policy", String, "prio", "prio|fifo", kNoMin, nullptr,
     "prio = three-lane runqueue; fifo = seed FIFO, no preemption or steals"},
    {"sched.preempt", Bool, "off", "", kNoMin, "APV_SCHED_PREEMPT",
     "cooperative quantum preemption at safe points"},
    {"sched.quantum_us", Int, "200", "", 1, nullptr,
     "slice before a preempt point demotes the running rank to Bulk"},
    {"sched.steal", Bool, "off", "", kNoMin, "APV_SCHED_STEAL",
     "idle-PE rank stealing (needs a migration-capable method and > 1 PE)"},
    {"sched.steal_idle_us", Int, "500", "", 1, nullptr,
     "how long a PE must be idle before it tries to steal"},
    {"coll.algo", String, "hier", "hier|naive", kNoMin, nullptr,
     "hier = two-level PE-leader collectives; naive = seed flat paths"},
    {"check.mode", String, "off", "off|warn|abort", kNoMin, "APV_CHECK_MODE",
     "checker: warn prints located diagnoses, abort fails with CheckFailed"},
    {"check.deadlock_s", Double, "0", "", 0, nullptr,
     "deadlock wait-graph scan period in s (0 = none; needs the checker)"},
    {"util.dump_counters", Bool, "off", "", kNoMin, nullptr,
     "print Runtime::all_counters() as one JSON line at finalize"},
    {"mpi.timeout_s", Int, "300", "", 1, nullptr,
     "wait_finish gives up and dumps the stuck state after this long"},
    {"ft.policy", String, "none", "none|epoch|random", kNoMin, nullptr,
     "fault injection: epoch kills ft.pe at ft.epoch; random seeds both"},
    {"ft.pe", Int, "0", "", 0, nullptr, "ft.policy=epoch: the PE to kill"},
    {"ft.epoch", Int, "1", "", 1, nullptr,
     "ft.policy=epoch: the checkpoint epoch at which it dies"},
    {"ft.seed", Int, "1", "", 0, nullptr, "ft.policy=random: PRNG seed"},
    {"ft.horizon", Int, "4", "", 1, nullptr,
     "ft.policy=random: the kill epoch is drawn from [1, horizon]"},
    {"ft.delta", Bool, "on", "", kNoMin, nullptr,
     "incremental checkpoints: dirty-page deltas between full images"},
    {"ft.full_every", Int, "8", "", 1, nullptr,
     "every this many checkpoints is a full image"},
    {"iso.pack", String, "touched", "touched|full", kNoMin, nullptr,
     "migration/checkpoint images carry touched slot pages or the full slot"},
    {"pie.fixup", String, "scan", "scan|exact", kNoMin, nullptr,
     "PIEglobals fix-up: scan segments, or rewrite GOT + recorded slots"},
    {"pie.share_code", Bool, "on", "", kNoMin, nullptr,
     "PIEglobals: each rank maps one code descriptor at its own address; "
     "off copies the code into every slot"},
    {"tls.compiler", String, "gcc", "", kNoMin, nullptr,
     "TLSglobals: the emulated compiler; gcc and clang are supported"},
    {"swap.linker_version", String, "2.23", "", kNoMin, nullptr,
     "Swapglobals: the emulated ld version; newer than 2.23 is refused"},
    {"swap.linker_patched", Bool, "off", "", kNoMin, nullptr,
     "Swapglobals: the emulated ld is patched, so any version works"},
    {"loader.patched_glibc", Bool, "off", "", kNoMin, nullptr,
     "PIPglobals: lift glibc's dlmopen namespace cap"},
    {"fs.dir", String, "/tmp/apv_fsglobals", "", kNoMin, nullptr,
     "FSglobals: directory for the per-rank binary copies"},
    {"fs.latency_us", Int, "150", "", 0, nullptr,
     "FSglobals: modeled shared-filesystem latency per copy"},
    {"fs.bandwidth_mb_s", Double, "400", "", 0, nullptr,
     "FSglobals: modeled filesystem bandwidth (0 = unpaced)"},
    {"net.enabled", Bool, "off", "", kNoMin, nullptr,
     "pace inter-node messages with the network cost model"},
    {"net.latency_us", Double, "1.5", "", 0, nullptr,
     "network model: per-message latency"},
    {"net.bandwidth_gb_s", Double, "12", "", 0, nullptr,
     "network model: bandwidth (0 = no bandwidth term)"},
};

const OptionSpec* find(std::string_view key) {
  for (const OptionSpec& s : kOptions)
    if (s.key == key) return &s;
  return nullptr;
}

bool parse_bool(std::string_view v, bool& out) {
  if (v == "on" || v == "true" || v == "yes" || v == "1") {
    out = true;
    return true;
  }
  if (v == "off" || v == "false" || v == "no" || v == "0") {
    out = false;
    return true;
  }
  return false;
}

template <typename T>
bool parse_number(std::string_view v, T& out) {
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, out);
  return ec == std::errc{} && p == end && !v.empty();
}

bool is_choice(std::string_view choices, std::string_view v) {
  for (std::size_t pos = 0;;) {
    const std::size_t bar = choices.find('|', pos);
    if (choices.substr(pos, bar - pos) == v) return true;
    if (bar == std::string_view::npos) return false;
    pos = bar + 1;
  }
}

bool accepts(const OptionSpec& s, std::string_view v) {
  switch (s.type) {
    case Bool: {
      bool b = false;
      return parse_bool(v, b);
    }
    case Int: {
      std::int64_t i = 0;
      return parse_number(v, i) && static_cast<double>(i) >= s.min;
    }
    case Double: {
      double d = 0.0;
      return parse_number(v, d) && std::isfinite(d) && d >= s.min;
    }
    case String:
      return s.choices.empty() || is_choice(s.choices, v);
  }
  return false;
}

std::string expected(const OptionSpec& s) {
  if (s.type == Bool) return "on|off";
  if (s.type == String) return std::string(s.choices);
  char min[32];
  return (s.type == Int ? "an integer >= " : "a number >= ") +
         std::string(min, std::to_chars(min, min + sizeof min, s.min).ptr);
}

void check(const OptionSpec& s, std::string_view value, const char* via) {
  if (accepts(s, value)) [[likely]] return;
  throw ApvError(ErrorCode::InvalidArgument,
                 "option " + std::string(s.key) + "=" + std::string(value) +
                     (via != nullptr ? std::string(" (from ") + via + ")"
                                     : std::string()) +
                     ": expected " + expected(s));
}

}  // namespace

std::span<const OptionSpec> option_table() { return kOptions; }

void Options::set(const std::string& key, const std::string& value) {
  const OptionSpec* s = find(key);
  if (s == nullptr)
    throw ApvError(ErrorCode::InvalidArgument,
                   "unknown option " + key + "=" + value);
  check(*s, value, nullptr);
  values_[key] = value;
}

void Options::set_int(const std::string& key, std::int64_t value) {
  set(key, std::to_string(value));
}

void Options::set_bool(const std::string& key, bool value) {
  set(key, value ? "on" : "off");
}

std::string_view Options::resolve(std::string_view key,
                                  OptionType type) const {
  const OptionSpec* s = find(key);
  if (s == nullptr || s->type != type) [[unlikely]]
    throw ApvError(ErrorCode::InvalidArgument,
                   "option " + std::string(key) +
                       (s == nullptr ? " is not declared"
                                     : " read as another type"));
  if (auto it = values_.find(key); it != values_.end()) return it->second;
  if (s->env != nullptr) {
    // An empty variable counts as unset.
    const char* v = std::getenv(s->env);
    if (v != nullptr && *v != '\0') {
      check(*s, v, s->env);
      return v;
    }
  }
  return s->def;
}

std::string Options::get_string(std::string_view key) const {
  return std::string(resolve(key, String));
}

std::int64_t Options::get_int(std::string_view key) const {
  std::int64_t v = 0;
  parse_number(resolve(key, Int), v);
  return v;
}

double Options::get_double(std::string_view key) const {
  double v = 0.0;
  parse_number(resolve(key, Double), v);
  return v;
}

bool Options::get_bool(std::string_view key) const {
  bool v = false;
  parse_bool(resolve(key, Bool), v);
  return v;
}

}  // namespace apv::util

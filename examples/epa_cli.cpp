// epa — the prototype security-testing tool the paper's future work
// promises ("we hope to be able to develop a prototype tool for security
// testing based on this methodology").
//
// Drives any packaged scenario through the full methodology from the
// command line:
//
//   epa_cli list                         # what can be audited
//   epa_cli run turnin                   # full campaign + report
//   epa_cli run turnin --sites fopen-projlist,arg-filename
//   epa_cli run logind --coverage 0.5 --seed 7
//   epa_cli run lpr --merge              # equivalence-reduced campaign
//   epa_cli run turnin --jobs 4          # parallel injection engine
//   epa_cli sweep --jobs 8               # every scenario, one shared pool
//   epa_cli trace mailer                 # interaction points only
//   epa_cli compare turnin turnin-hardened   # did the repair work?
//   epa_cli db [category]                # browse the vulnerability DB
//
// Sharded execution (docs/WIRE_FORMAT.md, scripts/shard_local.sh):
//
//   epa_cli plan turnin --out turnin.plan.json
//   epa_cli run-shard turnin.plan.json --shard 1/3 --out shard1.json  # x3
//   epa_cli merge turnin.plan.json shard1.json shard2.json shard3.json
//
// merge output is bit-identical to `epa_cli run turnin` for any shard
// count: work items carry stable ids and outcomes land by id.
//
// Orchestrated execution (docs/ARCHITECTURE.md, core/orchestrator.hpp):
//
//   epa_cli orchestrate turnin --workers 3    # dynamic leases, persistent
//   epa_cli orchestrate --all --workers 4     # workers, auto re-lease on
//                                             # preemption (exit 4)
//   epa_cli orchestrate turnin --data-plane tcp --listen 7070  # remote
//   epa_cli worker --connect host:7070        # workers dial in from
//                                             # any machine
//
// Coverage-guided search (docs/SEARCH.md, core/search.hpp):
//
//   epa_cli search turnin --budget 40 --seed 7      # novelty-driven, local
//   epa_cli search --family fam-relay --budget 120  # cumulative family search
//   epa_cli search turnin --budget 40 --workers 3   # orchestrated fleet
//   epa_cli search turnin --budget 40 --state s.json --resume
//
// `epa_cli worker` is the orchestrator's worker half: it parses the plan
// and re-freezes the COW prototype once, then serves LEASE commands over
// its framed session (stdin/stdout; the socket with --connect)
// until EXIT/EOF — the per-process costs are paid per worker, not per
// work slice. Every data plane speaks worker protocol v3
// (core/protocol.hpp): HELLO handshake, PING heartbeats at checkpoints,
// STEAL/YIELD work stealing, FEEDBACK item appends for search.
// Orchestrated output is bit-identical to `run`.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/families.hpp"
#include "apps/redzone_demo.hpp"
#include "apps/scenarios.hpp"
#include "apps/spec_env.hpp"
#include "core/arena.hpp"
#include "core/compare.hpp"
#include "core/equivalence.hpp"
#include "core/orchestrator.hpp"
#include "core/planner.hpp"
#include "core/protocol.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "core/scenario_spec.hpp"
#include "core/search.hpp"
#include "core/transport.hpp"
#include "core/wire.hpp"
#include "net/transport_tcp.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "vulndb/classifier.hpp"
#include "vulndb/coverage.hpp"

using namespace ep;

namespace {

int usage() {
  std::printf(
      "epa - environment perturbation analysis (prototype tool)\n\n"
      "usage:\n"
      "  epa_cli list\n"
      "  epa_cli scenarios [--family F] [--spec NAME] [--json]\n"
      "                (inventory; --family expands one family, --spec\n"
      "                emits a scenario's declarative spec JSON)\n"
      "  epa_cli trace <scenario>\n"
      "  epa_cli run <scenario>|--scenario-file FILE\n"
      "                         [--sites a,b,...] [--coverage F]\n"
      "                         [--seed N] [--merge] [--json] [--jobs N]\n"
      "                         [--no-world-cache] [--no-redzone]\n"
      "  epa_cli sweep [--family F|--scenario-file FILE] [--jobs N]\n"
      "                [--seed N] [--merge] [--json]\n"
      "                [--no-world-cache] [--no-redzone]\n"
      "  epa_cli plan <scenario>|--scenario-file FILE\n"
      "                [--out FILE] [--binary] [--sites a,b,...]\n"
      "                [--coverage F] [--seed N] [--merge]\n"
      "  epa_cli plan --all [--out-dir DIR] [--seed N] [--merge] [--jobs N]\n"
      "  epa_cli run-shard <plan-file> --shard K/N [--out FILE] [--jobs N]\n"
      "                [--no-world-cache] [--no-redzone] [--checkpoint K]\n"
      "                [--preempt-after N] [--scenario-file FILE]\n"
      "  epa_cli run-shard <plan-file> --resume <shard-file> [--out FILE]\n"
      "                [--jobs N] [--no-world-cache] [--no-redzone]\n"
      "                [--checkpoint K]\n"
      "  epa_cli merge <plan-file> <shard-file>... [--json]\n"
      "  epa_cli orchestrate <scenario>|--scenario-file FILE\n"
      "                [--workers N] [--lease auto|K]\n"
      "                [--data-plane pipe|shm|tcp] [--deadman-ms MS]\n"
      "                [--jobs N] [--preempt-after N] [--checkpoint K]\n"
      "                [--drain-delay-ms MS] [--dir DIR]\n"
      "                [--listen PORT] [--port-file FILE]   (tcp)\n"
      "                [--json] [--no-world-cache] [--no-redzone]\n"
      "  epa_cli orchestrate --all [same flags; pipe/shm only]\n"
      "  epa_cli search <scenario>|--family F|--scenario-file FILE\n"
      "                --budget N [--seed S] [--batch K] [--jobs N]\n"
      "                [--workers N] [--lease auto|K]\n"
      "                [--data-plane pipe|shm|tcp] [--listen PORT]\n"
      "                [--port-file FILE] [--dir DIR] [--state FILE]\n"
      "                [--resume] [--stop-after W] [--json]\n"
      "                [--no-world-cache] [--no-redzone]\n"
      "                (coverage-guided novelty search; docs/SEARCH.md)\n"
      "  epa_cli worker <plan-file>|--arena FILE|--connect HOST:PORT\n"
      "                [--jobs N] [--no-world-cache] [--no-redzone]\n"
      "                [--preempt-after N] [--scenario-file FILE]\n"
      "                [--checkpoint K] [--drain-delay-ms MS]\n"
      "                (worker protocol v3, framed on stdin/stdout or\n"
      "                over tcp with --connect; spawned by orchestrate)\n"
      "  epa_cli compare <before-scenario> <after-scenario>\n"
      "  epa_cli db [indirect|direct|other|excluded]\n");
  return 2;
}

// --- sharded execution (docs/WIRE_FORMAT.md) --------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    throw std::runtime_error("cannot read '" + path +
                             "': " + std::strerror(errno));
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad)
    throw std::runtime_error("error while reading '" + path + "'");
  return out;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f)
    throw std::runtime_error("cannot write '" + path +
                             "': " + std::strerror(errno));
  bool bad = std::fwrite(content.data(), 1, content.size(), f) !=
             content.size();
  bad |= std::fclose(f) != 0;
  if (bad) throw std::runtime_error("error while writing '" + path + "'");
}

/// Write-temp-then-rename, so a reader (or a resume after a kill) never
/// sees a torn file: the path holds either the previous checkpoint or the
/// new one, never half of each. The temp name is pid-unique — two
/// processes pointed at the same --out must never share one (a fixed
/// ".tmp" let them interleave writes and rename each other's half-written
/// bytes into place) — and is unlinked when the write or rename fails,
/// never left behind.
void write_file_atomic(const std::string& path, const std::string& content) {
  std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  try {
    write_file(tmp, content);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw std::runtime_error("cannot rename '" + tmp + "' to '" + path +
                               "': " + std::strerror(errno));
  } catch (...) {
    (void)std::remove(tmp.c_str());
    throw;
  }
}

// --- the command line -------------------------------------------------------
// Declarative: one Flag per flag, one Command per subcommand (kCommands,
// at the end of the file), one parse() for all of them. Exit statuses:
// 2 for a usage error — an unknown option, a missing or stray operand —
// with usage() on stdout; 1 for a bad value or a broken cross-flag rule,
// with one `epa:` line on stderr.

/// A flag's value grammar. Values are validated strictly as they are
/// parsed: `--jobs garbage` or a flag with no value exits 1 naming the
/// flag, never silently becomes 0 (atoi) or an "unknown option".
enum class Grammar {
  none,       // a switch
  integer,    // in [min, max]
  u64,        // an unsigned 64-bit integer
  unit,       // a real in [0, 1]
  lease,      // `auto` or an integer in [1, 2^30]
  plane,      // pipe | shm | tcp
  host_port,  // HOST:PORT, the port in [1, 65535]
  text,
};

/// Where a flag belongs when the command runs a worker fleet.
enum class Side {
  local,   // the coordinator's own
  worker,  // forked workers receive it; on tcp it belongs to the
           // operator's `epa_cli worker --connect` command line instead
  both,    // forked workers receive it and the coordinator needs it too
  fleet,   // names the local fleet's files; meaningless on tcp
};

struct Flag {
  const char* name;
  Grammar grammar = Grammar::none;
  long long min = 0, max = 0;  // Grammar::integer's range
  Side side = Side::local;
};

constexpr long long kMaxCount = 1LL << 30;

// Flags more than one subcommand accepts.
const Flag kAll{"--all"};
const Flag kJson{"--json"};
const Flag kMerge{"--merge"};
const Flag kSeed{"--seed", Grammar::u64};
const Flag kSites{"--sites", Grammar::text};
const Flag kCoverage{"--coverage", Grammar::unit};
const Flag kOut{"--out", Grammar::text};
const Flag kFamily{"--family", Grammar::text};
const Flag kScenarioFile{"--scenario-file", Grammar::text, 0, 0, Side::both};
const Flag kJobs{"--jobs", Grammar::integer, 1, 4096, Side::worker};
const Flag kNoWorldCache{"--no-world-cache", Grammar::none, 0, 0,
                         Side::worker};
const Flag kNoRedzone{"--no-redzone", Grammar::none, 0, 0, Side::worker};
const Flag kCheckpoint{"--checkpoint", Grammar::integer, 1, kMaxCount,
                       Side::worker};
const Flag kPreemptAfter{"--preempt-after", Grammar::integer, 1, kMaxCount,
                         Side::worker};
const Flag kDrainDelay{"--drain-delay-ms", Grammar::integer, 1, 1LL << 20,
                       Side::worker};
const Flag kWorkers{"--workers", Grammar::integer, 1, 1024};
const Flag kLease{"--lease", Grammar::lease};
const Flag kDataPlane{"--data-plane", Grammar::plane};
const Flag kListen{"--listen", Grammar::integer, 0, 65535};
const Flag kPortFile{"--port-file", Grammar::text};
const Flag kDir{"--dir", Grammar::text, 0, 0, Side::fleet};

/// A cross-flag rule. Its names are flags, the command's operand name
/// (e.g. "<scenario>"), or "--data-plane=tcp" (given with that value).
struct Rule {
  enum Kind {
    needs,        // each given `flags` entry needs one of `others`; with
                  // no `flags`, the command always does
    excludes,     // each given `flags` entry excludes all of `others`
    one_of,       // exactly one of `flags`; none is a usage error
    worker_side,  // once any of `others` is given, every worker- or
                  // fleet-side flag is an error
  } kind;
  std::vector<const char*> flags, others;
  /// The diagnostic; `%s` names the offending flag. Null: usage, exit 2.
  const char* message = nullptr;
};

struct Args;

struct Command {
  const char* name;
  int (*run)(const Args&);
  const char* operand;  // how rules name the operands
  std::size_t min_operands, max_operands;
  std::vector<Flag> flags;
  std::vector<Rule> rules;
};

/// One parsed command line.
struct Args {
  const Command* cmd = nullptr;
  const char* argv0 = nullptr;
  std::vector<std::string> operands;
  std::map<std::string, std::string> values;  // last value; "" = switch
  /// The tokens of every flag forked workers receive, in command-line
  /// order (LocalProcessConfig::worker_flags).
  std::vector<std::string> worker_flags;

  /// A flag, operand or "--flag=value" name is given.
  bool has(const std::string& name) const;
  std::string text(const std::string& flag,
                   const std::string& fallback = "") const {
    return has(flag) ? values.at(flag) : fallback;
  }
  /// An integer flag's value (validated at parse time).
  long long num(const std::string& flag, long long fallback) const {
    return has(flag) ? std::strtoll(values.at(flag).c_str(), nullptr, 10)
                     : fallback;
  }
};

[[noreturn]] void flag_fail(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "epa: %s %s\n", flag.c_str(), why.c_str());
  std::exit(1);
}

/// Exits 1 naming the flag when `v` is outside its grammar.
void check_value(const Flag& f, const std::string& v) {
  const std::string flag = f.name;
  errno = 0;
  char* end = nullptr;
  switch (f.grammar) {
    case Grammar::integer: {
      long long n = std::strtoll(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0')
        flag_fail(flag, "value '" + v + "' is not an integer");
      if (errno == ERANGE || n < f.min || n > f.max)
        flag_fail(flag, "value " + v + " out of range [" +
                            std::to_string(f.min) + ", " +
                            std::to_string(f.max) + "]");
      return;
    }
    case Grammar::u64:
      (void)std::strtoull(v.c_str(), &end, 10);
      if (errno == ERANGE || end == v.c_str() || *end != '\0' || v[0] == '-')
        flag_fail(flag, "value '" + v + "' is not an unsigned integer");
      return;
    case Grammar::unit: {
      double d = std::strtod(v.c_str(), &end);
      if (errno == ERANGE || end == v.c_str() || *end != '\0')
        flag_fail(flag, "value '" + v + "' is not a number");
      if (!(d >= 0.0 && d <= 1.0))
        flag_fail(flag, "value " + v + " out of range [0, 1]");
      return;
    }
    case Grammar::lease: {
      if (v == "auto") return;
      long long k = std::strtoll(v.c_str(), &end, 10);
      if (errno == ERANGE || end == v.c_str() || *end != '\0')
        flag_fail(flag, "value '" + v + "' is not an integer or 'auto'");
      if (k < 1 || k > kMaxCount)
        flag_fail(flag, "value " + v + " out of range [1, " +
                            std::to_string(kMaxCount) + "]");
      return;
    }
    case Grammar::plane:
      if (v != "pipe" && v != "shm" && v != "tcp")
        flag_fail(flag, "value '" + v + "' is not 'pipe', 'shm', or 'tcp'");
      return;
    case Grammar::host_port: {
      // Split on the *last* colon; the port gets the strict strtoll
      // validation every numeric flag gets.
      auto colon = v.rfind(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 == v.size())
        flag_fail(flag, "value '" + v + "' is not HOST:PORT");
      const char* port = v.c_str() + colon + 1;
      long long p = std::strtoll(port, &end, 10);
      if (errno == ERANGE || end == port || *end != '\0' || p < 1 ||
          p > 65535)
        flag_fail(flag, "port '" + v.substr(colon + 1) +
                            "' is not in [1, 65535]");
      return;
    }
    case Grammar::none:
    case Grammar::text:
      return;
  }
}

/// "K/N" with 1 <= K <= N (1-based on the command line, 0-based inside).
void parse_shard_spec(const std::string& spec, std::size_t* index,
                      std::size_t* count) {
  auto bad = [&]() -> std::runtime_error {
    return std::runtime_error("invalid --shard '" + spec +
                              "' (expected K/N with 1 <= K <= N)");
  };
  // strtoll, not sscanf: overflow must be a rejected spec, not UB.
  errno = 0;
  char* slash = nullptr;
  long long k = std::strtoll(spec.c_str(), &slash, 10);
  if (errno == ERANGE || slash == spec.c_str() || *slash != '/') throw bad();
  char* end = nullptr;
  long long n = std::strtoll(slash + 1, &end, 10);
  if (errno == ERANGE || end == slash + 1 || *end != '\0') throw bad();
  if (k < 1 || n < 1 || k > n) throw bad();
  *index = static_cast<std::size_t>(k - 1);
  *count = static_cast<std::size_t>(n);
}

/// Load + validate a plan file, naming the file in any failure. The
/// encoding is sniffed from the magic, so every plan-consuming command
/// (run-shard, merge, worker) accepts `plan --binary` output unchanged.
core::InjectionPlan load_plan(const std::string& path) {
  try {
    std::string text = read_file(path);
    return core::looks_like_binary_wire(text) ? core::plan_from_binary(text)
                                              : core::plan_from_json(text);
  } catch (const core::WireError& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

core::ShardReport load_shard_report(const std::string& path) {
  try {
    return core::shard_report_from_json(read_file(path));
  } catch (const core::WireError& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// The unknown-scenario diagnostic: name what was asked for, then the
/// full inventory — packaged names, redzone-demo, family patterns — so
/// a typo'd generated name is diagnosable without a second command.
void report_unknown_scenario(const std::string& name) {
  std::fprintf(stderr, "epa: unknown scenario '%s'\nepa: %s\n", name.c_str(),
               apps::scenario_names_hint().c_str());
}

/// Name resolution covers the packaged suite, the unlisted redzone-demo,
/// and every generated family member (apps::resolve_scenario). Empty
/// after the unknown-scenario diagnostic.
std::optional<core::Scenario> scenario_named(const std::string& name) {
  auto s = apps::resolve_scenario(name);
  if (!s) report_unknown_scenario(name);
  return s;
}

/// A family by name; null after the unknown-family diagnostic.
const core::ScenarioFamily* family_named(const std::string& name) {
  const core::ScenarioFamily* fam = apps::find_family(name);
  if (!fam)
    std::fprintf(stderr, "epa: unknown family '%s'\nepa: %s\n", name.c_str(),
                 apps::scenario_names_hint().c_str());
  return fam;
}

/// Compile a declarative spec file (docs/SCENARIO_AUTHORING.md) against
/// the standard image/handler environment. Parse and validation failures
/// name the file; the spec reader adds line/column for syntax errors.
core::Scenario scenario_from_file(const std::string& path) {
  try {
    core::ScenarioSpec spec = core::spec_from_json(read_file(path));
    return core::compile_spec(spec, apps::spec_environment());
  } catch (const core::WireError& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// The scenario a plan drains against (run-shard, worker): the spec file
/// when given — its name must match the plan's, or the report ids would
/// silently describe a different world — otherwise the plan's scenario
/// name through the name registry.
core::Scenario plan_scenario(const core::InjectionPlan& plan,
                             const std::string& plan_src,
                             const std::string& scenario_file) {
  if (!scenario_file.empty()) {
    core::Scenario s = scenario_from_file(scenario_file);
    if (s.name != plan.scenario_name)
      throw std::runtime_error(scenario_file + ": spec names scenario '" +
                               s.name + "' but " + plan_src +
                               " was planned for '" + plan.scenario_name +
                               "'");
    return s;
  }
  auto s = apps::resolve_scenario(plan.scenario_name);
  if (!s)
    throw std::runtime_error(
        plan_src + ": plan names unknown scenario '" + plan.scenario_name +
        "' (written by a different scenario set? pass its spec with "
        "--scenario-file); " +
        apps::scenario_names_hint());
  return std::move(*s);
}

/// The scenarios a command line selects: --family F's members, a
/// --scenario-file spec, the <scenario> operand, or — with --all, or a
/// sweep given no source — the packaged suite. Empty after an
/// unknown-family or unknown-scenario diagnostic.
std::vector<core::Scenario> select_scenarios(const Args& a) {
  std::vector<core::Scenario> out;
  if (a.has("--family")) {
    if (const core::ScenarioFamily* fam = family_named(a.text("--family")))
      out = apps::family_scenarios(*fam);
  } else if (a.has("--scenario-file")) {
    out.push_back(scenario_from_file(a.text("--scenario-file")));
  } else if (!a.operands.empty()) {
    if (auto s = scenario_named(a.operands[0])) out.push_back(std::move(*s));
  } else {
    out = apps::all_scenarios();
  }
  return out;
}

/// The campaign options a command line sets; the job count is left to
/// the caller (a campaign drains with it, a sweep shares it).
core::CampaignOptions campaign_options(const Args& a) {
  core::CampaignOptions o;
  if (a.has("--sites")) o.only_sites = split(a.text("--sites"), ',');
  if (a.has("--coverage"))
    o.target_interaction_coverage =
        std::strtod(a.text("--coverage").c_str(), nullptr);
  if (a.has("--seed"))
    o.seed = std::strtoull(a.text("--seed").c_str(), nullptr, 10);
  o.merge_equivalent_sites = a.has("--merge");
  o.use_world_cache = !a.has("--no-world-cache");
  o.use_redzone = !a.has("--no-redzone");
  return o;
}

core::ExecutorOptions executor_options(const Args& a) {
  core::ExecutorOptions o;
  o.jobs = static_cast<int>(a.num("--jobs", 1));
  o.use_world_cache = !a.has("--no-world-cache");
  o.use_redzone = !a.has("--no-redzone");
  return o;
}

/// Render one campaign's report (or JSON) and return the `run` exit
/// contract: 0 clean, 3 candidate vulnerabilities.
int print_result(const core::CampaignResult& r, bool as_json) {
  std::printf("%s",
              (as_json ? core::render_json(r) : core::render_report(r))
                  .c_str());
  return r.exploitable().empty() ? 0 : 3;
}

int cmd_list(const Args&) {
  TextTable t({"scenario", "description"});
  for (const auto& s : apps::all_scenarios())
    t.add_row({s.name, s.description});
  std::printf("%s", t.render().c_str());
  return 0;
}

/// The full name inventory: packaged scenarios, the name-reachable but
/// unlisted redzone-demo, and the generated families. With --family F the
/// listing expands to F's members — every name `run`, `plan`, `sweep`,
/// and `orchestrate` will accept.
int cmd_scenarios(const Args& a) {
  const bool as_json = a.has("--json");
  if (a.has("--spec")) {
    // Canonical serializer output — exactly what --scenario-file parses
    // back, so this doubles as the authoring template.
    const std::string name = a.text("--spec");
    auto spec = apps::resolve_spec(name);
    if (!spec) {
      report_unknown_scenario(name);
      return 1;
    }
    std::string json = core::spec_to_json(*spec);
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  if (a.has("--family")) {
    const core::ScenarioFamily* fam = family_named(a.text("--family"));
    if (!fam) return 1;
    auto specs = core::expand_family(*fam);
    if (as_json) {
      std::printf("{\n\"family\": %s,\n\"members\": [\n",
                  json_quote(fam->name).c_str());
      for (std::size_t i = 0; i < specs.size(); ++i)
        std::printf("%s%s\n", json_quote(specs[i].name).c_str(),
                    i + 1 < specs.size() ? "," : "");
      std::printf("]\n}\n");
    } else {
      for (const auto& spec : specs) std::printf("%s\n", spec.name.c_str());
      std::printf("%zu members of family %s\n", specs.size(),
                  fam->name.c_str());
    }
    return 0;
  }

  const std::string demo_note =
      "name-reachable but unlisted: resolves on every command, excluded "
      "from the packaged sweep (pinned negative control)";
  if (as_json) {
    std::printf("{\n\"scenarios\": [\n");
    for (const auto& s : apps::all_scenarios())
      std::printf("{\"name\": %s, \"kind\": \"packaged\", "
                  "\"description\": %s},\n",
                  json_quote(s.name).c_str(),
                  json_quote(s.description).c_str());
    std::printf("{\"name\": \"redzone-demo\", \"kind\": \"unlisted\", "
                "\"description\": %s}\n",
                json_quote(demo_note).c_str());
    std::printf("],\n\"families\": [\n");
    const auto& fams = apps::scenario_families();
    for (std::size_t i = 0; i < fams.size(); ++i) {
      std::printf("{\"name\": %s, \"members\": %zu, \"axes\": [",
                  json_quote(fams[i].name).c_str(),
                  core::family_size(fams[i]));
      for (std::size_t j = 0; j < fams[i].axes.size(); ++j)
        std::printf("%s%s", json_quote(fams[i].axes[j].name).c_str(),
                    j + 1 < fams[i].axes.size() ? ", " : "");
      std::printf("], \"description\": %s}%s\n",
                  json_quote(fams[i].description).c_str(),
                  i + 1 < fams.size() ? "," : "");
    }
    // The EAI coverage universe (vulndb/coverage.hpp): external tooling
    // computes adequacy against these class names without re-implementing
    // the fault-to-class mapping.
    auto universe = vulndb::coverage_universe();
    std::printf("],\n\"coverage_universe\": [\n");
    for (std::size_t i = 0; i < universe.size(); ++i)
      std::printf("%s%s\n", json_quote(universe[i]).c_str(),
                  i + 1 < universe.size() ? "," : "");
    std::printf("]\n}\n");
    return 0;
  }

  TextTable t({"scenario", "kind", "description"});
  for (const auto& s : apps::all_scenarios())
    t.add_row({s.name, "packaged", s.description});
  t.add_row({"redzone-demo", "unlisted", demo_note});
  std::printf("%s\n", t.render().c_str());
  TextTable ft({"family", "members", "axes", "description"});
  for (const auto& f : apps::scenario_families()) {
    std::string axes;
    for (const auto& axis : f.axes) {
      if (!axes.empty()) axes += " x ";
      axes += axis.name + "(" + std::to_string(axis.values.size()) + ")";
    }
    ft.add_row({f.name, std::to_string(core::family_size(f)), axes,
                f.description});
  }
  std::printf("%s", ft.render().c_str());
  std::printf("expand a family with: epa_cli scenarios --family <name>\n");
  return 0;
}

int cmd_trace(const Args& a) {
  const std::string& name = a.operands[0];
  auto scenario = scenario_named(name);
  if (!scenario) return 1;
  core::Campaign campaign(std::move(*scenario));
  core::CampaignOptions opts;
  opts.only_sites = {"--none--"};  // discovery only
  auto r = campaign.execute(opts);

  std::printf("interaction points of %s:\n\n", name.c_str());
  TextTable t({"site", "call", "object", "kind", "input"});
  for (const auto& p : r.points)
    t.add_row({p.site.tag, p.call, p.object,
               std::string(to_string(p.kind)), p.has_input ? "yes" : "no"});
  std::printf("%s\n", t.render().c_str());
  std::printf("equivalence partition:\n%s",
              core::render_equivalence(
                  core::find_equivalence_classes(r.points))
                  .c_str());
  return 0;
}

int cmd_run(const Args& a) {
  std::vector<core::Scenario> scenarios = select_scenarios(a);
  if (scenarios.empty()) return 1;
  core::CampaignOptions opts = campaign_options(a);
  opts.jobs = static_cast<int>(a.num("--jobs", 1));
  return print_result(
      core::Campaign(std::move(scenarios.front())).execute(opts),
      a.has("--json"));
}

int cmd_compare(const Args& a) {
  auto before_s = scenario_named(a.operands[0]);
  if (!before_s) return 1;
  auto after_s = scenario_named(a.operands[1]);
  if (!after_s) return 1;
  auto before = core::Campaign(std::move(*before_s)).execute();
  auto after = core::Campaign(std::move(*after_s)).execute();
  auto c = core::compare(before, after);
  std::printf("%s", core::render_comparison(c).c_str());
  return c.safe() ? 0 : 3;
}

/// Render a whole-suite result (sweep or orchestrate --all) and return
/// the run/sweep exit contract: 0 clean, 3 candidate vulnerabilities.
/// `with_coverage` appends the vulnerability-coverage adequacy figures
/// (vulndb/coverage.hpp) to the totals — generated-suite sweeps only,
/// so the packaged sweep's bytes stay the pinned control.
int print_sweep(const core::SweepResult& sweep, bool as_json,
                bool with_coverage = false) {
  if (as_json) {
    std::printf("{\n\"scenarios\": [\n");
    for (std::size_t i = 0; i < sweep.results.size(); ++i)
      std::printf("%s%s", core::render_json(sweep.results[i]).c_str(),
                  i + 1 < sweep.results.size() ? ",\n" : "\n");
    std::printf(
        "],\n\"totals\": {\"points\": %d, \"injections\": %d, "
        "\"violations\": %d, \"exploitable\": %d, "
        "\"mean_vulnerability_score\": %.6f",
        sweep.total_points(), sweep.total_injections(),
        sweep.total_violations(), sweep.total_exploitable(),
        sweep.mean_vulnerability_score());
    if (with_coverage) {
      vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(sweep.results);
      std::printf(", \"vuln_classes_fired\": %zu, "
                  "\"vuln_classes_total\": %d, \"vuln_coverage_pct\": %.1f",
                  cov.fired.size(), cov.total(), 100.0 * cov.fraction());
    }
    std::printf("}\n}\n");
  } else {
    TextTable t({"scenario", "points", "injections", "violations", "rho",
                 "region", "exploitable"});
    for (const auto& r : sweep.results) {
      char rho[16];
      std::snprintf(rho, sizeof rho, "%.3f", r.vulnerability_score());
      t.add_row({r.scenario_name, std::to_string(r.points.size()),
                 std::to_string(r.n()), std::to_string(r.violation_count()),
                 rho, std::string(to_string(r.region())),
                 std::to_string(r.exploitable().size())});
    }
    std::printf("%s\n%d scenarios, %d injection runs, %d violations, "
                "%d exploitable (mean rho %.3f)\n",
                t.render().c_str(), static_cast<int>(sweep.results.size()),
                sweep.total_injections(), sweep.total_violations(),
                sweep.total_exploitable(), sweep.mean_vulnerability_score());
    if (with_coverage) {
      vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(sweep.results);
      std::printf("vulnerability coverage: %zu of %d EAI classes fired "
                  "(%.1f%%)\n",
                  cov.fired.size(), cov.total(), 100.0 * cov.fraction());
      for (const auto& c : cov.silent)
        std::printf("  silent %s\n", c.c_str());
    }
  }
  return sweep.total_exploitable() == 0 ? 0 : 3;
}

int cmd_sweep(const Args& a) {
  std::vector<core::Scenario> scenarios = select_scenarios(a);
  if (scenarios.empty()) return 1;
  core::MultiCampaign suite;
  for (auto& s : scenarios) suite.add(std::move(s));
  core::SweepOptions opts;
  opts.jobs = static_cast<int>(a.num("--jobs", 1));
  opts.campaign = campaign_options(a);
  // Generated suites carry the adequacy report; the packaged sweep's
  // output is a byte-pinned regression control and stays untouched.
  const bool generated = a.has("--family") || a.has("--scenario-file");
  return print_sweep(suite.run(opts), a.has("--json"), generated);
}

int cmd_db(const Args& a) {
  const std::string filter = a.operands.empty() ? "" : a.operands[0];
  const std::vector<std::string> categories = {"indirect", "direct", "other",
                                               "excluded"};
  if (!filter.empty() && std::find(categories.begin(), categories.end(),
                                   filter) == categories.end()) {
    std::fprintf(stderr,
                 "epa: unknown db category '%s' (expected indirect, "
                 "direct, other, or excluded)\n",
                 filter.c_str());
    return 1;
  }
  const auto& db = vulndb::database();
  TextTable t({"id", "name", "os", "EAI class", "description"});
  int shown = 0;
  for (const auto& r : db) {
    auto cls = vulndb::classify_record(r);
    std::string cls_name;
    switch (cls) {
      case vulndb::EaiClass::indirect:
        cls_name = "indirect/" + std::string(to_string(*r.input_origin));
        break;
      case vulndb::EaiClass::direct:
        cls_name = "direct/" + std::string(to_string(*r.entity));
        break;
      case vulndb::EaiClass::other: cls_name = "other"; break;
      default: cls_name = "excluded/" + std::string(to_string(r.cause));
    }
    // The category is the class name up to its '/'.
    if (!filter.empty() && cls_name.substr(0, cls_name.find('/')) != filter)
      continue;
    ++shown;
    std::string desc = r.description.size() > 60
                           ? r.description.substr(0, 57) + "..."
                           : r.description;
    t.add_row({std::to_string(r.id), r.name, r.os, cls_name, desc});
  }
  std::printf("%s%d of %zu records\n", t.render().c_str(), shown, db.size());
  return 0;
}

int cmd_plan_all(const Args& a) {
  // Create the output directory up front: planning every scenario only
  // to fail on the first write would discard all of that work.
  const std::string out_dir = a.text("--out-dir", ".");
  if (::mkdir(out_dir.c_str(), 0777) != 0 && errno != EEXIST)
    throw std::runtime_error("cannot create '" + out_dir +
                             "': " + std::strerror(errno));
  core::MultiCampaign suite;
  for (auto& s : apps::all_scenarios()) suite.add(std::move(s));
  core::SweepOptions plan_opts;
  plan_opts.jobs = static_cast<int>(a.num("--jobs", 1));
  plan_opts.campaign = campaign_options(a);
  plan_opts.campaign.use_world_cache = false;  // plan files carry no snapshot
  auto plans = suite.plan_all(plan_opts);
  for (const auto& plan : plans) {
    std::string path = out_dir + "/" + plan.scenario_name + ".plan.json";
    write_file(path, plan.to_json());
    std::printf("%s: %zu interaction points, %zu work items -> %s\n",
                plan.scenario_name.c_str(), plan.points.size(),
                plan.items.size(), path.c_str());
  }
  return 0;
}

int cmd_plan(const Args& a) {
  if (a.has("--all")) return cmd_plan_all(a);
  std::vector<core::Scenario> scenarios = select_scenarios(a);
  if (scenarios.empty()) return 1;
  const core::Scenario& scenario = scenarios.front();
  core::CampaignOptions opts = campaign_options(a);
  // The plan file never carries the world snapshot; don't build one.
  opts.use_world_cache = false;
  core::InjectionPlan plan = core::Planner(scenario).plan(opts);
  const std::string out_path = a.text("--out");
  std::string wire =
      a.has("--binary") ? core::plan_to_binary(plan) : plan.to_json();
  if (out_path.empty()) {
    // fwrite, not printf: the binary encoding contains NUL bytes.
    std::fwrite(wire.data(), 1, wire.size(), stdout);
    return 0;
  }
  write_file(out_path, wire);
  std::printf("%s: %zu interaction points, %zu work items -> %s\n",
              scenario.name.c_str(), plan.points.size(), plan.items.size(),
              out_path.c_str());
  return 0;
}

/// Set by the SIGTERM handler; run-shard's drain polls it between
/// checkpoint chunks, flushes the partial report, and exits 4 — a
/// preempted worker loses at most one chunk, never the shard.
volatile std::sig_atomic_t g_preempted = 0;

extern "C" void on_sigterm(int) { g_preempted = 1; }

int cmd_run_shard(const Args& a) {
  const std::string& plan_path = a.operands[0];
  const std::string shard_spec = a.text("--shard");
  const std::string resume_path = a.text("--resume");
  const long long checkpoint = a.num("--checkpoint", 0);
  const long long preempt_after = a.num("--preempt-after", 0);
  // Completing in place is the natural resume: the partial file becomes
  // the finished report unless --out redirects it.
  const std::string out_path = a.text("--out", resume_path);
  core::InjectionPlan plan = load_plan(plan_path);

  std::size_t shard_index = 0, shard_count = 0;
  core::ShardReport partial;
  const bool resuming = !resume_path.empty();
  if (resuming) {
    partial = load_shard_report(resume_path);
    shard_index = partial.shard_index;
    shard_count = partial.shard_count;
    if (!shard_spec.empty()) {
      std::size_t want_index = 0, want_count = 0;
      parse_shard_spec(shard_spec, &want_index, &want_count);
      if (want_index != shard_index || want_count != shard_count)
        throw std::runtime_error(
            resume_path + ": holds shard " +
            std::to_string(shard_index + 1) + "/" +
            std::to_string(shard_count) + " but --shard asked for " +
            shard_spec);
    }
  } else {
    parse_shard_spec(shard_spec, &shard_index, &shard_count);
  }

  core::Scenario scenario =
      plan_scenario(plan, plan_path, a.text("--scenario-file"));
  const core::ExecutorOptions opts = executor_options(a);
  // The wire never carries the snapshot; re-freeze a local prototype so
  // the shard drains through the same COW clone path as a local run.
  if (opts.use_world_cache) core::refreeze_snapshot(plan, scenario);
  core::Executor executor(scenario);

  long long flushes = 0;
  core::ShardDrainHooks hooks;
  if (checkpoint > 0) {
    // Catch SIGTERM only when the drain can actually act on it (the stop
    // flag is polled between checkpoint chunks). Without --checkpoint
    // the drain is one uninterruptible chunk and the default disposition
    // — terminate — is the right behavior, not a swallowed signal.
    std::signal(SIGTERM, on_sigterm);
    hooks.checkpoint_every = static_cast<std::size_t>(checkpoint);
    hooks.interrupted = [] { return g_preempted != 0; };
    hooks.on_checkpoint = [&](const core::ShardReport& r) {
      write_file_atomic(out_path, r.to_json());
      // The CI determinism hook: deliver the preemption signal to
      // ourselves after N flushes, through the real handler.
      if (preempt_after > 0 && ++flushes >= preempt_after)
        (void)std::raise(SIGTERM);
    };
  }

  core::ShardReport report =
      resuming ? core::resume_shard(executor, plan, partial, opts, hooks)
               : core::run_shard(executor, plan, shard_index, shard_count,
                                 opts, hooks);
  std::string json = report.to_json();
  if (out_path.empty()) {
    std::printf("%s", json.c_str());
    return report.complete ? 0 : 4;
  }
  write_file_atomic(out_path, json);
  std::printf("%s -> %s\n", core::render_shard_summary(report).c_str(),
              out_path.c_str());
  if (!report.complete) {
    std::fprintf(stderr,
                 "epa: preempted; partial report flushed to %s "
                 "(complete it with run-shard --resume)\n",
                 out_path.c_str());
    return 4;  // 4 = preempted, valid partial report on disk
  }
  return 0;
}

int cmd_merge(const Args& a) {
  const std::string& plan_path = a.operands[0];
  const std::vector<std::string> shard_paths(a.operands.begin() + 1,
                                             a.operands.end());
  core::InjectionPlan plan = load_plan(plan_path);
  std::vector<core::ShardReport> shards;
  shards.reserve(shard_paths.size());
  // load_shard_report prefixes per-file failures with the path; the
  // paths double as labels so cross-shard validation failures (duplicate
  // shard, partial file, foreign plan) also name the offending file.
  for (const auto& path : shard_paths)
    shards.push_back(load_shard_report(path));
  return print_result(core::merge_shard_reports(plan, shards, shard_paths),
                      a.has("--json"));
}

// --- orchestrated execution (core/orchestrator.hpp) -------------------------

/// The worker's end of its framed session with the coordinator
/// (core/protocol.hpp framing): stdin/stdout for a forked worker, the
/// socket twice for a dialed-in one. Raw fds rather than stdio — the
/// STEAL poll between checkpoint chunks needs a non-blocking read that
/// does not fight a buffered FILE*.
class FrameChannel {
 public:
  FrameChannel(int in_fd, int out_fd) : in_fd_(in_fd), out_fd_(out_fd) {}
  /// False on a dead peer; the read side tells the death story.
  bool send(const std::string& payload) {
    return core::send_frame(out_fd_, payload);
  }
  /// Block for the next frame. False on EOF (coordinator gone).
  bool recv(std::string* payload) {
    if (eof_) return false;
    if (!core::recv_frame(in_fd_, &frames_, payload)) eof_ = true;
    return !eof_;
  }
  /// Pull one already-arrived frame without blocking — how a draining
  /// worker notices STEAL between chunks.
  bool poll(std::string* payload) {
    if (frames_.pop(payload)) return true;
    if (!eof_) eof_ = !core::pump_nonblocking(in_fd_, &frames_);
    return frames_.pop(payload);
  }

 private:
  int in_fd_;
  int out_fd_;
  core::FrameBuffer frames_;
  bool eof_ = false;
};

/// The worker's protocol version for HELLO. EPA_WORKER_PROTOCOL overrides
/// it — the test hook that manufactures an old fleet so the handshake
/// rejection path is exercised on every data plane.
long long worker_protocol_version() {
  const char* env = std::getenv("EPA_WORKER_PROTOCOL");
  if (!env || !*env) return core::kWorkerProtocolVersion;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(env, &end, 10);
  if (errno == ERANGE || end == env || *end != '\0')
    return core::kWorkerProtocolVersion;
  return v;
}

/// Everything a worker does after HELLO: load the plan, freeze the
/// prototype, serve leases. Returns the exit status; `*done` counts the
/// leases served.
int serve_leases(const Args& a, FrameChannel& chan, long long* done) {
  // --preempt-after self-preempts after N leases, or — with --checkpoint
  // — after N flushes (the CI hook); --drain-delay-ms sleeps before each
  // checkpoint chunk (the straggler hook).
  const long long checkpoint = a.num("--checkpoint", 0);
  const long long preempt_after = a.num("--preempt-after", 0);
  const long long drain_delay_ms = a.num("--drain-delay-ms", 0);
  core::InjectionPlan plan;
  std::string plan_src;
  if (a.has("--connect")) {
    plan_src = a.text("--connect");
    std::string frame;
    if (!chan.recv(&frame))
      throw std::runtime_error(
          plan_src + ": coordinator closed the connection before sending "
                     "a plan (handshake rejected?)");
    try {
      plan = core::plan_from_binary(frame);
    } catch (const core::WireError& e) {
      throw std::runtime_error(plan_src + ": " + e.what());
    }
  } else if (a.has("--arena")) {
    plan_src = a.text("--arena");
    const core::ShmArena arena = core::ShmArena::open(plan_src);
    try {
      plan = core::plan_from_binary(arena.plan_data(), arena.plan_size());
    } catch (const core::WireError& e) {
      throw std::runtime_error(plan_src + ": " + e.what());
    }
  } else {
    plan_src = a.operands[0];
    plan = load_plan(plan_src);
  }
  core::Scenario scenario =
      plan_scenario(plan, plan_src, a.text("--scenario-file"));
  const core::ExecutorOptions opts = executor_options(a);
  if (opts.use_world_cache) core::refreeze_snapshot(plan, scenario);
  core::Executor executor(scenario);
  std::signal(SIGTERM, on_sigterm);
  // One line per process by design: the ctest worker-protocol check
  // counts these to pin "parse + re-freeze happen once, not per lease".
  std::fprintf(stderr,
               "epa worker: parsed %s (%zu items), prototype %s; serving\n",
               plan_src.c_str(), plan.items.size(),
               plan.snapshot ? "frozen" : "uncached");

  long long flushes = 0;  // cumulative across leases, like `done`
  std::string cmd;
  while (chan.recv(&cmd)) {
    core::ProtocolMsg msg;
    if (!core::parse_protocol_line(cmd, &msg)) {
      std::fprintf(stderr, "epa: worker: malformed command '%s'\n",
                   cmd.c_str());
      return 1;
    }
    if (msg.type == core::ProtocolMsg::Type::exit_cmd) break;
    if (msg.type == core::ProtocolMsg::Type::steal) continue;  // the
    // benign race: the lease it wanted stolen finished before the
    // STEAL arrived; there is nothing left to yield.
    if (msg.type == core::ProtocolMsg::Type::feedback) {
      // The search plane's item append (protocol v3): the coordinator
      // generated items past the range this worker's plan copy carries.
      // The append must be gap-free — begin names exactly the current
      // item count, or a lost FEEDBACK would silently shift every later
      // id — and the spec's length must match the announced range.
      if (msg.begin != plan.items.size()) {
        std::fprintf(stderr,
                     "epa: worker: FEEDBACK begins at %zu but the plan "
                     "holds %zu items (lost feedback?)\n",
                     msg.begin, plan.items.size());
        return 1;
      }
      std::vector<core::WorkItem> appended;
      try {
        appended =
            core::parse_feedback_spec(msg.target, plan.points.size());
      } catch (const core::WireError& e) {
        std::fprintf(stderr, "epa: worker: %s\n", e.what());
        return 1;
      }
      if (msg.end != msg.begin + appended.size()) {
        std::fprintf(stderr,
                     "epa: worker: FEEDBACK range [%zu, %zu) but the "
                     "spec carries %zu item(s)\n",
                     msg.begin, msg.end, appended.size());
        return 1;
      }
      for (auto& item : appended) plan.items.push_back(std::move(item));
      // A search plan can start empty (every item arrives as
      // feedback); the prototype freeze was a no-op then, so pay it on
      // the first append instead.
      if (opts.use_world_cache) core::refreeze_snapshot(plan, scenario);
      continue;
    }
    if (msg.type != core::ProtocolMsg::Type::lease) {
      std::fprintf(stderr, "epa: worker: unexpected command '%s'\n",
                   cmd.c_str());
      return 1;
    }
    std::size_t begin = msg.begin, end = msg.end;
    // The report target: on every plane the report follows DONE as a
    // frame.
    if (msg.target != "-") {
      std::fprintf(stderr,
                   "epa: worker: lease target must be '-' (the report "
                   "returns as a frame), got '%s'\n",
                   msg.target.c_str());
      return 1;
    }
    if (g_preempted) {
      std::fprintf(stderr,
                   "epa: worker preempted; lease [%zu, %zu) not drained\n",
                   begin, end);
      return 4;  // the orchestrator re-leases [begin, end)
    }

    bool steal_requested = false;
    std::size_t chunks = 0;
    core::ShardDrainHooks hooks;
    if (checkpoint > 0) {
      hooks.checkpoint_every = static_cast<std::size_t>(checkpoint);
      hooks.interrupted = [&] {
        // The straggler hook: slow every chunk down so CI can force a
        // lease split deterministically.
        if (drain_delay_ms > 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(drain_delay_ms));
        if (g_preempted) return true;
        std::string in;
        while (chan.poll(&in)) {
          core::ProtocolMsg m;
          if (core::parse_protocol_line(in, &m) &&
              m.type == core::ProtocolMsg::Type::steal)
            steal_requested = true;
        }
        // Honor a STEAL only once a chunk has landed — the yielded
        // split point must sit strictly inside the lease.
        return steal_requested && chunks > 0;
      };
      hooks.on_checkpoint = [&](const core::ShardReport&) {
        ++chunks;
        // Heartbeat at every checkpoint: the coordinator's deadman
        // only trusts a worker it has heard from recently.
        chan.send(core::format_ping());
        // CI determinism hook (--checkpoint mode): preempt mid-lease
        // at the Nth checkpoint, counted across the worker's whole
        // lifetime so replacements make progress before being preempted
        // too.
        if (preempt_after > 0 && ++flushes >= preempt_after)
          (void)std::raise(SIGTERM);
      };
    }
    core::ShardReport report =
        core::run_lease(executor, plan, begin, end, opts, hooks);
    if (!report.complete && g_preempted) {
      // Preempted mid-lease: exit *without* DONE — a DONE always names
      // a complete report; the orchestrator re-drains the whole range.
      std::fprintf(stderr,
                   "epa: worker preempted mid-lease; [%zu, %zu) will be "
                   "re-leased\n",
                   begin, end);
      return 4;
    }
    if (!report.complete) {
      // Stopped for a STEAL: keep the drained prefix [begin, mid) and
      // surrender [mid, end). Shrinking assigned_ids to exactly the
      // drained ids makes the prefix a *complete* report for the kept
      // half — the DONE below names the shrunk lease.
      std::size_t mid = begin + report.item_ids.size();
      report.assigned_ids = report.item_ids;
      report.complete = true;
      chan.send(core::format_yield(mid, end));
      std::fprintf(stderr,
                   "epa worker: yielded [%zu, %zu) of lease [%zu, %zu)\n",
                   mid, end, begin, end);
      end = mid;
    }
    chan.send(core::format_done(begin, end));
    chan.send(core::shard_report_to_binary(report));
    ++*done;
    // CI determinism hook (lease mode): deliver the preemption signal
    // to ourselves after N served leases, through the real handler.
    if (checkpoint == 0 && preempt_after > 0 && *done >= preempt_after)
      (void)std::raise(SIGTERM);
  }
  return 0;
}

/// The persistent worker half of the orchestrator: parse the plan and
/// re-freeze the COW prototype exactly once, then serve LEASE commands
/// until EXIT/EOF. Every data plane is one framed session
/// (core/protocol.hpp) — stdin/stdout for a plan file or --arena, the
/// socket for --connect. The first frame out is always `HELLO <version>`
/// (a coordinator speaking a different protocol rejects the worker
/// before any lease is granted) and the last is `BYE <status>`.
/// Everything human-facing goes to stderr. SIGTERM is graceful
/// preemption: with --checkpoint the in-flight lease stops at the next
/// chunk boundary (no DONE, exit 4); without it the in-flight lease
/// finishes and the *next* one is refused with exit 4. Either way the
/// orchestrator re-leases the unfinished range.
///
/// With --checkpoint the worker also sends a PING heartbeat after every
/// chunk (feeding the coordinator's deadman) and polls for STEAL between
/// chunks: a stolen lease is answered with `YIELD <mid> <end>` — the
/// worker keeps the drained prefix [begin, mid) and the coordinator
/// re-leases the tail to an idle worker.
///
/// Every lease is `LEASE <begin> <end> -`, and each DONE is followed by
/// the lease's binary report frame. Only where the plan comes from
/// differs:
///   plan file  parsed from the file (JSON or binary).
///   --arena    decoded from the arena's mapping (core/arena.hpp).
///   --connect  HELLO up, the binary plan down as the first frame, then
///              the same exchange over the socket.
int cmd_worker(const Args& a) {
  const bool use_tcp = a.has("--connect");
  const std::string target = a.text("--connect");
  const auto colon = target.rfind(':');
  const int sock = use_tcp ? net::tcp_connect(
                                 target.substr(0, colon),
                                 std::atoi(target.c_str() + colon + 1))
                           : -1;
  FrameChannel chan(use_tcp ? sock : STDIN_FILENO,
                    use_tcp ? sock : STDOUT_FILENO);
  // HELLO before anything else — a tcp coordinator checks the version
  // before it ships the plan.
  chan.send(core::format_hello(worker_protocol_version()));
  long long done = 0;
  int rc = 0;
  try {
    rc = serve_leases(a, chan, &done);
  } catch (...) {
    // A tcp coordinator cannot see an exit status — announce the death
    // so it is classified `died`, not a lost host to re-lease around.
    chan.send(core::format_bye(1));
    throw;
  }
  chan.send(core::format_bye(rc));
  std::fprintf(stderr, "epa worker: served %lld lease(s), exiting\n", done);
  return rc;
}

// --- worker fleets (orchestrate, search --workers) --------------------------

enum class DataPlane { pipe, shm, tcp };

DataPlane data_plane(const Args& a) {
  const std::string v = a.text("--data-plane", "pipe");
  if (v == "shm") return DataPlane::shm;
  return v == "tcp" ? DataPlane::tcp : DataPlane::pipe;
}

/// Where a local fleet's plan and arena files go: --dir (created if
/// missing, and left as it is), or a fresh $TMPDIR/epa-<command>.XXXXXX
/// that is removed with everything in it when the fleet is done —
/// success or error. Nothing at all unless `needed` (the tcp plane and
/// in-process search write no files).
class FleetDir {
 public:
  FleetDir(const Args& a, bool needed) {
    if (!needed) return;
    path_ = a.text("--dir");
    if (path_.empty()) {
      const char* tmp = std::getenv("TMPDIR");
      std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") + "/epa-" +
                         a.cmd->name + ".XXXXXX";
      if (!::mkdtemp(tmpl.data()))
        throw std::runtime_error(std::string("cannot create temp dir: ") +
                                 std::strerror(errno));
      path_ = tmpl;
      owned_ = true;
    } else if (::mkdir(path_.c_str(), 0777) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create '" + path_ +
                               "': " + std::strerror(errno));
    }
  }
  ~FleetDir() {
    std::error_code ec;  // best effort: never throw out of a destructor
    if (owned_) std::filesystem::remove_all(path_, ec);
  }
  FleetDir(const FleetDir&) = delete;
  FleetDir& operator=(const FleetDir&) = delete;

  const std::string& path() const { return path_; }
  /// True when the files stay behind for the user (--dir).
  bool kept() const { return !owned_ && !path_.empty(); }

 private:
  std::string path_;
  bool owned_ = false;
};

/// Plan `scenario` in-process, timing it. Planning runs the scenario
/// once (the trace run), so the wall time is a live sample of roughly
/// one build plus one run on this machine — what --lease auto sizes
/// leases from.
core::InjectionPlan timed_plan(const core::Scenario& scenario,
                               const core::CampaignOptions& popts,
                               double* plan_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  core::InjectionPlan plan = core::Planner(scenario).plan(popts);
  *plan_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  return plan;
}

/// `--lease auto` (the default): size leases from the measured per-item
/// cost. Targeting ~250ms of drain per lease gives build-heavy scenarios
/// smaller initial leases — rebalancing around stragglers and
/// preemptions happens at lease grain, so an expensive lease is a long
/// time to be stuck — while the classic items/(workers*4) grain stays
/// the ceiling, so cheap scenarios keep marginal per-lease costs. Lease
/// sizing never changes merged output (outcomes land by stable id);
/// only scheduling granularity moves.
std::size_t auto_lease_items(std::size_t plan_items, int workers,
                             double plan_ms) {
  const std::size_t grain =
      core::auto_lease_grain(plan_items, static_cast<std::size_t>(workers));
  const double per_item_ms = plan_ms / 2.0;  // trace ~ build + one run
  if (per_item_ms <= 0.0) return grain;
  const double by_cost = 250.0 / per_item_ms;
  if (by_cost >= static_cast<double>(grain)) return grain;
  return std::max<std::size_t>(1, static_cast<std::size_t>(by_cost));
}

/// One fleet's orchestrator options: --workers (default 2),
/// --deadman-ms, and the lease grain — --lease K, or auto-sized over
/// `items` and announced on stderr.
core::OrchestratorOptions fleet_options(const Args& a,
                                        const std::string& scenario,
                                        std::size_t items, double plan_ms) {
  core::OrchestratorOptions o;
  o.workers = static_cast<int>(a.num("--workers", 2));
  o.deadman_ms = a.num("--deadman-ms", 0);
  const std::string lease = a.text("--lease", "auto");
  if (lease != "auto") {
    o.lease_items = static_cast<std::size_t>(std::stoll(lease));
    return o;
  }
  o.lease_items = auto_lease_items(items, o.workers, plan_ms);
  std::fprintf(stderr,
               "epa %s: %s: auto lease grain %zu item(s) (planning took "
               "%.0f ms)\n",
               a.cmd->name, scenario.c_str(), o.lease_items, plan_ms);
  return o;
}

/// The transport for one fleet draining `plan`. tcp listens for
/// `workers` dial-ins; pipe and shm fork workers that receive the
/// command line's worker flags, with the plan written to `dir` as JSON
/// (pipe) or frozen into a binary arena there (shm).
std::unique_ptr<core::Transport> make_transport(
    const Args& a, int workers, const std::string& dir,
    const core::InjectionPlan& plan) {
  const DataPlane plane = data_plane(a);
  if (plane == DataPlane::tcp) {
    net::TcpTransportConfig tcfg;
    tcfg.listen_port = static_cast<int>(a.num("--listen", 0));
    tcfg.port_file = a.text("--port-file");
    tcfg.workers = workers;
    auto t = std::make_unique<net::TcpTransport>(tcfg, plan);
    std::fprintf(stderr,
                 "epa %s: listening on port %d; waiting for %d worker(s) "
                 "(epa_cli worker --connect HOST:%d)\n",
                 a.cmd->name, t->port(), workers, t->port());
    return t;
  }
  core::LocalProcessConfig cfg;
  cfg.epa_cli = core::LocalProcessTransport::self_exe(a.argv0);
  cfg.out_dir = dir;
  cfg.file_prefix = plan.scenario_name;
  cfg.worker_flags = a.worker_flags;
  if (plane == DataPlane::shm)
    return std::make_unique<core::ShmLocalTransport>(cfg, plan);
  cfg.plan_path = dir + "/" + plan.scenario_name + ".plan.json";
  write_file(cfg.plan_path, plan.to_json());
  return std::make_unique<core::LocalProcessTransport>(cfg);
}

void report_fleet(const Args& a, const std::string& scenario,
                  const core::OrchestratorOptions& o,
                  const core::OrchestratorStats& stats) {
  std::fprintf(stderr,
               "epa %s: %s: %zu leases across %zu worker(s) (%zu "
               "re-leased, %zu preempted, %zu spawned, %zu split, %zu "
               "deadman)\n",
               a.cmd->name, scenario.c_str(), stats.leases_total,
               static_cast<std::size_t>(o.workers), stats.leases_released,
               stats.workers_preempted, stats.workers_spawned,
               stats.leases_split, stats.deadman_expiries);
}

/// The adequacy summary rides stderr: stdout stays byte-identical to a
/// single-process run on every data plane and worker count. The fired
/// classes are listed one per line so adequacy tooling — and the CI
/// check that a search loses no class an exhaustive drain fires — can
/// consume them without parsing the report.
void report_coverage(const Args& a, const core::SweepResult& sweep,
                     const std::string& lead) {
  vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(sweep.results);
  std::fprintf(stderr,
               "epa %s: %svulnerability coverage %zu/%d EAI classes "
               "(%.1f%%)\n",
               a.cmd->name, lead.c_str(), cov.fired.size(), cov.total(),
               100.0 * cov.fraction());
  for (const auto& c : cov.fired)
    std::fprintf(stderr, "epa %s: fired %s\n", a.cmd->name, c.c_str());
}

int cmd_orchestrate(const Args& a) {
  std::vector<core::Scenario> scenarios = select_scenarios(a);
  if (scenarios.empty()) return 1;
  const DataPlane plane = data_plane(a);
  const FleetDir dir(a, plane != DataPlane::tcp);

  core::SweepResult sweep;
  for (const core::Scenario& scenario : scenarios) {
    // The coordinator plans in-process and keeps the plan in memory for
    // the merge; only workers pay a plan parse (once per process).
    core::CampaignOptions popts;
    popts.use_world_cache = false;  // the plan file carries no snapshot
    popts.use_redzone = !a.has("--no-redzone");
    double plan_ms = 0;
    core::InjectionPlan plan = timed_plan(scenario, popts, &plan_ms);
    core::OrchestratorOptions oopts =
        fleet_options(a, scenario.name, plan.items.size(), plan_ms);
    std::unique_ptr<core::Transport> transport =
        make_transport(a, oopts.workers, dir.path(), plan);
    core::OrchestratorStats stats;
    sweep.results.push_back(
        core::orchestrate(plan, *transport, oopts, &stats));
    report_fleet(a, scenario.name, oopts, stats);
  }
  if (dir.kept())
    std::fprintf(stderr, "epa orchestrate: %s files in %s\n",
                 plane == DataPlane::shm ? "arena" : "plan",
                 dir.path().c_str());
  report_coverage(a, sweep, "");
  if (a.has("--all")) return print_sweep(sweep, a.has("--json"));
  return print_result(sweep.results.front(), a.has("--json"));
}

// --- coverage-guided search (core/search.hpp, docs/SEARCH.md) ---------------

/// The search drive: one SearchWorkSource per scenario, drained either
/// in-process (run_search) or across a worker fleet (orchestrate_source
/// — the workers learn generated items via protocol FEEDBACK). A family
/// search runs its members sequentially through ONE shared NoveltyScorer
/// with the budget split evenly (remainder to the first member), so a
/// class fired by member one stops paying rent in member two. Exit
/// contract: 0/3 like `run`, 4 when --stop-after ended the search early
/// (checkpoint flushed; finish with --resume).
int cmd_search(const Args& a) {
  std::vector<core::Scenario> scenarios = select_scenarios(a);
  if (scenarios.empty()) return 1;
  const bool orchestrated = a.has("--workers");
  const FleetDir dir(a, orchestrated && data_plane(a) != DataPlane::tcp);
  const std::string state_path = a.text("--state");
  const std::size_t budget = static_cast<std::size_t>(a.num("--budget", 0));

  core::NoveltyScorer scorer;  // shared across family members
  core::SweepResult sweep;
  std::size_t exhaustive_items = 0;
  std::size_t generated_items = 0;
  for (std::size_t m = 0; m < scenarios.size(); ++m) {
    const core::Scenario& scenario = scenarios[m];
    const std::size_t member_budget =
        budget / scenarios.size() +
        (m == 0 ? budget % scenarios.size() : 0);

    // The exhaustive plan is the candidate frontier; its planning wall
    // time doubles as the per-item cost sample for --lease auto.
    core::CampaignOptions popts;
    popts.use_world_cache = !orchestrated && !a.has("--no-world-cache");
    popts.use_redzone = !a.has("--no-redzone");
    double plan_ms = 0;
    core::InjectionPlan base = timed_plan(scenario, popts, &plan_ms);
    exhaustive_items += base.items.size();

    core::SearchOptions sopts;
    if (a.has("--seed"))
      sopts.seed = std::strtoull(a.text("--seed").c_str(), nullptr, 10);
    sopts.budget = member_budget;
    sopts.batch = static_cast<std::size_t>(a.num("--batch", 16));
    sopts.classify = [](core::FaultKind kind, const std::string& name) {
      return vulndb::coverage_class(kind, name);
    };
    core::SearchWorkSource source(std::move(base), sopts, &scorer);

    // Resume replays the checkpointed waves *before* the checkpoint hook
    // is installed, so replay never re-writes the state file. A missing
    // state file is a fresh start — a search killed before its first
    // wave barrier left nothing behind, by design.
    if (a.has("--resume")) {
      struct stat st{};
      if (::stat(state_path.c_str(), &st) == 0)
        source.resume(core::search_state_from_json(read_file(state_path)));
    }
    if (!state_path.empty())
      source.set_checkpoint([&](const core::SearchState& s) {
        write_file_atomic(state_path, core::search_state_to_json(s));
      });

    core::CampaignResult result;
    if (!orchestrated) {
      core::Executor executor(scenario);
      core::SearchRunResult run = core::run_search(
          executor, source, executor_options(a),
          static_cast<std::size_t>(a.num("--stop-after", 0)));
      if (run.stopped) {
        std::fprintf(stderr,
                     "epa search: stopped after %zu wave(s); state "
                     "checkpointed to %s (finish with --resume)\n",
                     run.waves, state_path.c_str());
        return 4;
      }
      result = std::move(run.result);
    } else {
      // Waves are at most `batch` items, so the auto grain sizes leases
      // against the wave, not the (unbounded) generated stream.
      core::OrchestratorOptions oopts =
          fleet_options(a, scenario.name, sopts.batch, plan_ms);
      const std::size_t known = source.plan().items.size();
      std::unique_ptr<core::Transport> transport =
          make_transport(a, oopts.workers, dir.path(), source.plan());
      core::OrchestratorStats stats;
      result = core::orchestrate_source(source, *transport, oopts, &stats,
                                        known);
      report_fleet(a, scenario.name, oopts, stats);
    }
    generated_items += source.plan().items.size();
    std::fprintf(stderr,
                 "epa search: %s: %zu item(s) in %zu wave(s), budget %zu\n",
                 scenario.name.c_str(), source.plan().items.size(),
                 source.waves_generated(), member_budget);
    sweep.results.push_back(std::move(result));
  }

  char lead[128];
  std::snprintf(lead, sizeof lead,
                "%zu of %zu exhaustive item(s) spent (%.1f%%), ",
                generated_items, exhaustive_items,
                exhaustive_items == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(generated_items) /
                          static_cast<double>(exhaustive_items));
  report_coverage(a, sweep, lead);
  if (scenarios.size() > 1) return print_sweep(sweep, a.has("--json"), true);
  return print_result(sweep.results.front(), a.has("--json"));
}

/// Malformed or partial wire files must exit non-zero with a clear
/// message, never let an exception escape main.
template <typename Fn>
int guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epa: %s\n", e.what());
    return 1;
  }
}

// --- the command table ------------------------------------------------------

// Rules more than one subcommand applies.
const Rule kDrainNeedsCheckpoint{
    Rule::needs, {"--drain-delay-ms"}, {"--checkpoint"},
    "--drain-delay-ms needs --checkpoint (the delay is applied per "
    "checkpoint chunk)"};
const Rule kOnePlanOnTcp{
    Rule::excludes, {"--all", "--family"}, {"--data-plane=tcp"},
    "%s needs the pipe or shm data plane (a tcp fleet parses one plan at "
    "connect time)"};
const Rule kTcpWorkerSide{Rule::worker_side, {}, {"--data-plane=tcp"}};
const Rule kTcpOnly{Rule::needs, {"--listen", "--port-file"},
                    {"--data-plane=tcp"}, "%s needs --data-plane tcp"};

const std::vector<Command> kCommands = {
    {"list", cmd_list, "", 0, 0, {}, {}},
    {"scenarios", cmd_scenarios, "", 0, 0,
     {kFamily, {"--spec", Grammar::text}, kJson},
     {{Rule::excludes, {"--family"}, {"--spec"},
       "--family and --spec are exclusive"}}},
    {"trace", cmd_trace, "<scenario>", 1, 1, {}, {}},
    {"compare", cmd_compare, "<scenario>", 2, 2, {}, {}},
    {"db", cmd_db, "<category>", 0, 1, {}, {}},
    {"run", cmd_run, "<scenario>", 0, 1,
     {kScenarioFile, kSites, kCoverage, kSeed, kMerge, kJson, kJobs,
      kNoWorldCache, kNoRedzone},
     {{Rule::one_of, {"<scenario>", "--scenario-file"}, {}}}},
    {"sweep", cmd_sweep, "", 0, 0,
     {kFamily, kScenarioFile, kJobs, kSeed, kMerge, kJson, kNoWorldCache,
      kNoRedzone},
     {{Rule::excludes, {"--family"}, {"--scenario-file"},
       "--family and --scenario-file are exclusive"}}},
    // A flag outside the mode it applies to is an error, not ignored: a
    // silently ignored flag hides a typo'd command (a --sites under
    // --all would plan zero work items for every scenario).
    {"plan", cmd_plan, "<scenario>", 0, 1,
     {kAll, kScenarioFile, kOut, {"--out-dir", Grammar::text}, {"--binary"},
      kSites, kCoverage, kSeed, kMerge, kJobs},
     {{Rule::one_of, {"--all", "<scenario>", "--scenario-file"}, {}},
      {Rule::excludes, {"--out"}, {"--all"},
       "--out applies to single-scenario plan only (use --out-dir with "
       "--all)"},
      {Rule::excludes, {"--binary", "--sites", "--coverage"}, {"--all"},
       "%s applies to single-scenario plan only"},
      {Rule::needs, {"--out-dir", "--jobs"}, {"--all"},
       "%s applies to plan --all only"}}},
    {"run-shard", cmd_run_shard, "<plan-file>", 1, 1,
     {{"--shard", Grammar::text}, {"--resume", Grammar::text}, kOut,
      kScenarioFile, kJobs, kCheckpoint, kPreemptAfter, kNoWorldCache,
      kNoRedzone},
     {{Rule::needs, {}, {"--shard", "--resume"}},
      {Rule::needs, {"--checkpoint"}, {"--out", "--resume"},
       "--checkpoint needs --out (checkpoints are flushed to the report "
       "file)"},
      {Rule::needs, {"--preempt-after"}, {"--checkpoint"},
       "--preempt-after needs --checkpoint (preemption is delivered at a "
       "checkpoint flush)"}}},
    {"merge", cmd_merge, "<file>", 2, SIZE_MAX, {kJson}, {}},
    // Exactly one data plane: a plan file (pipe), --arena (shm), or
    // --connect (tcp).
    {"worker", cmd_worker, "<plan-file>", 0, 1,
     {{"--arena", Grammar::text}, {"--connect", Grammar::host_port},
      kScenarioFile, kJobs, kCheckpoint, kPreemptAfter, kDrainDelay,
      kNoWorldCache, kNoRedzone},
     {{Rule::one_of, {"<plan-file>", "--arena", "--connect"}, {},
       "worker takes exactly one of a plan file, --arena, or --connect"},
      kDrainNeedsCheckpoint}},
    {"orchestrate", cmd_orchestrate, "<scenario>", 0, 1,
     {kAll, kScenarioFile, kWorkers, kLease, kDataPlane,
      {"--deadman-ms", Grammar::integer, 1, kMaxCount}, kListen, kPortFile,
      kJson, kJobs, kPreemptAfter, kCheckpoint, kDrainDelay, kNoWorldCache,
      kNoRedzone, kDir},
     {{Rule::one_of, {"--all", "<scenario>", "--scenario-file"}, {}},
      kOnePlanOnTcp, kTcpWorkerSide, kTcpOnly,
      {Rule::needs, {"--deadman-ms"}, {"--checkpoint", "--data-plane=tcp"},
       "--deadman-ms needs --checkpoint on the pipe/shm data planes "
       "(heartbeats are sent at checkpoint flushes)"},
      kDrainNeedsCheckpoint}},
    {"search", cmd_search, "<scenario>", 0, 1,
     {kFamily, kScenarioFile, {"--budget", Grammar::integer, 1, kMaxCount},
      kSeed, {"--batch", Grammar::integer, 1, 1LL << 20},
      {"--state", Grammar::text}, {"--resume"},
      {"--stop-after", Grammar::integer, 1, kMaxCount}, kWorkers, kLease,
      kDataPlane, kListen, kPortFile, kJson, kJobs, kNoWorldCache,
      kNoRedzone, kDir},
     {{Rule::one_of, {"<scenario>", "--scenario-file", "--family"}, {}},
      {Rule::needs, {}, {"--budget"},
       "search needs --budget N (the total number of injection runs to "
       "spend)"},
      {Rule::needs, {"--resume"}, {"--state"}, "--resume needs --state FILE"},
      // A family search interleaves members through one scorer; a
      // checkpoint of member N alone could not reproduce that state.
      {Rule::excludes, {"--state", "--stop-after"}, {"--family"},
       "%s works on a single scenario, not --family"},
      {Rule::excludes, {"--stop-after"}, {"--workers"},
       "--stop-after drives the in-process drain; drop --workers "
       "(orchestrated searches checkpoint at every wave barrier anyway)"},
      {Rule::needs, {"--stop-after"}, {"--state"},
       "--stop-after needs --state FILE (stopping without a checkpoint "
       "would just discard the waves)"},
      {Rule::needs, {"--data-plane=tcp"}, {"--workers"},
       "--data-plane tcp needs --workers N"},
      kOnePlanOnTcp, kTcpWorkerSide, kTcpOnly,
      {Rule::needs, {"--lease", "--data-plane", "--dir"}, {"--workers"},
       "%s needs --workers N"}}},
};

bool Args::has(const std::string& name) const {
  if (name == cmd->operand) return !operands.empty();
  const auto eq = name.find('=');
  const std::string flag = name.substr(0, eq);
  // Catch a misspelled name in the table or a command: every name must
  // be some subcommand's flag.
  const bool declared = std::any_of(
      kCommands.begin(), kCommands.end(), [&](const Command& c) {
        return std::any_of(c.flags.begin(), c.flags.end(),
                           [&](const Flag& f) { return flag == f.name; });
      });
  if (!declared) throw std::logic_error("no flag named '" + flag + "'");
  auto it = values.find(flag);
  return it != values.end() &&
         (eq == std::string::npos || it->second == name.substr(eq + 1));
}

[[noreturn]] void usage_error() { std::exit(usage()); }

[[noreturn]] void rule_fail(const Rule& r, const std::string& flag) {
  if (!r.message) usage_error();
  std::string msg = r.message;
  const auto at = msg.find("%s");
  if (at != std::string::npos) msg.replace(at, 2, flag);
  std::fprintf(stderr, "epa: %s\n", msg.c_str());
  std::exit(1);
}

void check_rule(const Args& a, const Rule& r) {
  auto given = [&](const char* name) { return a.has(name); };
  const bool any_other = std::any_of(r.others.begin(), r.others.end(), given);
  switch (r.kind) {
    case Rule::needs:
      if (r.flags.empty() && !any_other) rule_fail(r, "");
      for (const char* f : r.flags)
        if (a.has(f) && !any_other) rule_fail(r, f);
      return;
    case Rule::excludes:
      for (const char* f : r.flags)
        if (a.has(f) && any_other) rule_fail(r, f);
      return;
    case Rule::one_of: {
      const auto n = std::count_if(r.flags.begin(), r.flags.end(), given);
      if (n == 0) usage_error();
      if (n > 1) rule_fail(r, "");
      return;
    }
    case Rule::worker_side:
      if (!any_other) return;
      for (const Flag& f : a.cmd->flags)
        if ((f.side == Side::worker || f.side == Side::fleet) &&
            a.has(f.name)) {
          std::fprintf(stderr,
                       "epa: %s is worker-side; pass it to `epa_cli worker "
                       "--connect` (tcp workers are not spawned by %s)\n",
                       f.name, a.cmd->name);
          std::exit(1);
        }
      return;
  }
}

/// The one parse every subcommand shares: operands and flags in any
/// order, each value checked as it is read, then the command's rules.
Args parse(const Command& cmd, int argc, char** argv) {
  Args a;
  a.cmd = &cmd;
  a.argv0 = argv[0];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--") && a.operands.size() < cmd.max_operands) {
      a.operands.push_back(arg);
      continue;
    }
    auto f = std::find_if(cmd.flags.begin(), cmd.flags.end(),
                          [&](const Flag& fl) { return arg == fl.name; });
    if (f == cmd.flags.end()) {
      std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
      usage_error();
    }
    std::string value;
    if (f->grammar != Grammar::none) {
      if (i + 1 >= argc) flag_fail(arg, "requires a value");
      value = argv[++i];
      check_value(*f, value);
    }
    a.values[arg] = value;
    if (f->side == Side::worker || f->side == Side::both) {
      a.worker_flags.push_back(arg);
      if (f->grammar != Grammar::none) a.worker_flags.push_back(value);
    }
  }
  if (a.operands.size() < cmd.min_operands) usage_error();
  for (const Rule& r : cmd.rules) check_rule(a, r);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  for (const Command& cmd : kCommands)
    if (cmd.name == std::string(argv[1])) {
      const Args a = parse(cmd, argc, argv);
      return guarded([&] { return cmd.run(a); });
    }
  return usage();
}

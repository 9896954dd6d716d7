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

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
      "                [--port-file FILE] [--state FILE] [--resume]\n"
      "                [--stop-after W] [--json] [--no-world-cache]\n"
      "                [--no-redzone]\n"
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

// --- numeric flag parsing ---------------------------------------------------
// Every numeric option goes through strtoll/strtod with full validation
// (the parse_shard_spec style): `--jobs garbage` or a flag with no value
// must exit 1 with an epa: diagnostic, never silently become 0 (atoi) or
// fall through to "unknown option".

[[noreturn]] void flag_fail(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "epa: %s %s\n", flag.c_str(), why.c_str());
  std::exit(1);
}

/// The value argv slot of `flag`, advancing *i past it.
const char* flag_value(const std::string& flag, int argc, char** argv,
                       int* i) {
  if (*i + 1 >= argc) flag_fail(flag, "requires a value");
  return argv[++*i];
}

long long int_flag(const std::string& flag, int argc, char** argv, int* i,
                   long long min, long long max) {
  const char* text = flag_value(flag, argc, argv, i);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0')
    flag_fail(flag, "value '" + std::string(text) +
                        "' is not an integer");
  if (errno == ERANGE || v < min || v > max)
    flag_fail(flag, "value " + std::string(text) + " out of range [" +
                        std::to_string(min) + ", " + std::to_string(max) +
                        "]");
  return v;
}

std::uint64_t uint64_flag(const std::string& flag, int argc, char** argv,
                          int* i) {
  const char* text = flag_value(flag, argc, argv, i);
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0' || text[0] == '-')
    flag_fail(flag, "value '" + std::string(text) +
                        "' is not an unsigned integer");
  return static_cast<std::uint64_t>(v);
}

double unit_interval_flag(const std::string& flag, int argc, char** argv,
                          int* i) {
  const char* text = flag_value(flag, argc, argv, i);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0')
    flag_fail(flag, "value '" + std::string(text) + "' is not a number");
  if (!(v >= 0.0 && v <= 1.0))
    flag_fail(flag, "value " + std::string(text) +
                        " out of range [0, 1]");
  return v;
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

/// Name resolution covers the packaged suite, the unlisted redzone-demo,
/// and every generated family member (apps::resolve_scenario).
core::Scenario find_scenario(const std::string& name, bool& found) {
  auto s = apps::resolve_scenario(name);
  found = s.has_value();
  return found ? std::move(*s) : core::Scenario{};
}

/// The unknown-scenario exit path: name what was asked for, then the
/// full inventory — packaged names, redzone-demo, family patterns — so
/// a typo'd generated name is diagnosable without a second command.
int unknown_scenario(const std::string& name) {
  std::fprintf(stderr, "epa: unknown scenario '%s'\nepa: %s\n", name.c_str(),
               apps::scenario_names_hint().c_str());
  return 1;
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
  bool found = false;
  core::Scenario s = find_scenario(plan.scenario_name, found);
  if (!found)
    throw std::runtime_error(
        plan_src + ": plan names unknown scenario '" + plan.scenario_name +
        "' (written by a different scenario set? pass its spec with "
        "--scenario-file); " +
        apps::scenario_names_hint());
  return s;
}

int cmd_list() {
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
int cmd_scenarios(const std::string& family_name,
                  const std::string& spec_name, bool as_json) {
  if (!spec_name.empty()) {
    // Canonical serializer output — exactly what --scenario-file parses
    // back, so this doubles as the authoring template.
    auto spec = apps::resolve_spec(spec_name);
    if (!spec) return unknown_scenario(spec_name);
    std::string json = core::spec_to_json(*spec);
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  if (!family_name.empty()) {
    const core::ScenarioFamily* fam = apps::find_family(family_name);
    if (!fam) {
      std::fprintf(stderr, "epa: unknown family '%s'\nepa: %s\n",
                   family_name.c_str(),
                   apps::scenario_names_hint().c_str());
      return 1;
    }
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
    for (const auto& a : f.axes) {
      if (!axes.empty()) axes += " x ";
      axes += a.name + "(" + std::to_string(a.values.size()) + ")";
    }
    ft.add_row({f.name, std::to_string(core::family_size(f)), axes,
                f.description});
  }
  std::printf("%s", ft.render().c_str());
  std::printf("expand a family with: epa_cli scenarios --family <name>\n");
  return 0;
}

int cmd_trace(const std::string& name) {
  bool found = false;
  core::Scenario scenario = find_scenario(name, found);
  if (!found) return unknown_scenario(name);
  core::Campaign campaign(std::move(scenario));
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

int cmd_run(const std::string& name, const std::string& scenario_file,
            const core::CampaignOptions& opts, bool as_json) {
  core::Scenario scenario;
  if (!scenario_file.empty()) {
    scenario = scenario_from_file(scenario_file);
  } else {
    bool found = false;
    scenario = find_scenario(name, found);
    if (!found) return unknown_scenario(name);
  }
  core::Campaign campaign(std::move(scenario));
  auto r = campaign.execute(opts);
  std::printf("%s", (as_json ? core::render_json(r)
                             : core::render_report(r))
                        .c_str());
  return r.exploitable().empty() ? 0 : 3;  // 3 = candidate vulnerabilities
}

int cmd_compare(const std::string& before_name,
                const std::string& after_name) {
  bool found_b = false, found_a = false;
  core::Scenario before_s = find_scenario(before_name, found_b);
  core::Scenario after_s = find_scenario(after_name, found_a);
  if (!found_b || !found_a)
    return unknown_scenario(found_b ? after_name : before_name);
  auto before = core::Campaign(std::move(before_s)).execute();
  auto after = core::Campaign(std::move(after_s)).execute();
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

int cmd_sweep(const core::SweepOptions& opts, bool as_json,
              const std::string& family_name,
              const std::string& scenario_file) {
  core::MultiCampaign suite;
  bool generated = false;
  if (!family_name.empty()) {
    const core::ScenarioFamily* fam = apps::find_family(family_name);
    if (!fam) {
      std::fprintf(stderr, "epa: unknown family '%s'\nepa: %s\n",
                   family_name.c_str(),
                   apps::scenario_names_hint().c_str());
      return 1;
    }
    for (auto& s : apps::family_scenarios(*fam)) suite.add(std::move(s));
    generated = true;
  } else if (!scenario_file.empty()) {
    suite.add(scenario_from_file(scenario_file));
    generated = true;
  } else {
    for (auto& s : apps::all_scenarios()) suite.add(std::move(s));
  }
  // Generated suites carry the adequacy report; the packaged sweep's
  // output is a byte-pinned regression control and stays untouched.
  return print_sweep(suite.run(opts), as_json, generated);
}

int cmd_db(const std::string& filter) {
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
    bool matches = filter.empty() ||
                   (filter == "indirect" &&
                    cls == vulndb::EaiClass::indirect) ||
                   (filter == "direct" && cls == vulndb::EaiClass::direct) ||
                   (filter == "other" && cls == vulndb::EaiClass::other) ||
                   (filter == "excluded" &&
                    cls != vulndb::EaiClass::indirect &&
                    cls != vulndb::EaiClass::direct &&
                    cls != vulndb::EaiClass::other);
    if (!matches) continue;
    ++shown;
    std::string desc = r.description.size() > 60
                           ? r.description.substr(0, 57) + "..."
                           : r.description;
    t.add_row({std::to_string(r.id), r.name, r.os, cls_name, desc});
  }
  std::printf("%s%d of %zu records\n", t.render().c_str(), shown, db.size());
  return 0;
}

int cmd_plan(const std::string& name, const std::string& scenario_file,
             core::CampaignOptions opts, const std::string& out_path,
             bool binary) {
  core::Scenario scenario;
  if (!scenario_file.empty()) {
    scenario = scenario_from_file(scenario_file);
  } else {
    bool found = false;
    scenario = find_scenario(name, found);
    if (!found) return unknown_scenario(name);
  }
  // The plan file never carries the world snapshot; don't build one.
  opts.use_world_cache = false;
  core::InjectionPlan plan = core::Planner(scenario).plan(opts);
  std::string wire = binary ? core::plan_to_binary(plan) : plan.to_json();
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

int cmd_plan_all(const core::SweepOptions& opts, const std::string& out_dir) {
  // Create the output directory up front: planning every scenario only
  // to fail on the first write would discard all of that work.
  if (::mkdir(out_dir.c_str(), 0777) != 0 && errno != EEXIST)
    throw std::runtime_error("cannot create '" + out_dir +
                             "': " + std::strerror(errno));
  core::MultiCampaign suite;
  for (auto& s : apps::all_scenarios()) suite.add(std::move(s));
  core::SweepOptions plan_opts = opts;
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

/// Set by the SIGTERM handler; run-shard's drain polls it between
/// checkpoint chunks, flushes the partial report, and exits 4 — a
/// preempted worker loses at most one chunk, never the shard.
volatile std::sig_atomic_t g_preempted = 0;

extern "C" void on_sigterm(int) { g_preempted = 1; }

struct RunShardArgs {
  std::string plan_path;
  std::string shard_spec;     // --shard K/N
  std::string resume_path;    // --resume FILE
  std::string out_path;       // --out FILE
  std::string scenario_file;  // --scenario-file: spec instead of the name
  int jobs = 1;
  bool use_world_cache = true;
  bool use_redzone = true;        // --no-redzone: disable the memory oracle
  std::size_t checkpoint = 0;     // --checkpoint K: flush every K outcomes
  long long preempt_after = 0;    // --preempt-after N: self-SIGTERM (CI)
};

int cmd_run_shard(RunShardArgs a) {
  core::InjectionPlan plan = load_plan(a.plan_path);

  std::size_t shard_index = 0, shard_count = 0;
  core::ShardReport partial;
  const bool resuming = !a.resume_path.empty();
  if (resuming) {
    partial = load_shard_report(a.resume_path);
    shard_index = partial.shard_index;
    shard_count = partial.shard_count;
    if (!a.shard_spec.empty()) {
      std::size_t want_index = 0, want_count = 0;
      parse_shard_spec(a.shard_spec, &want_index, &want_count);
      if (want_index != shard_index || want_count != shard_count)
        throw std::runtime_error(
            a.resume_path + ": holds shard " +
            std::to_string(shard_index + 1) + "/" +
            std::to_string(shard_count) + " but --shard asked for " +
            a.shard_spec);
    }
    // Completing in place is the natural resume: the partial file becomes
    // the finished report unless --out redirects it.
    if (a.out_path.empty()) a.out_path = a.resume_path;
  } else {
    parse_shard_spec(a.shard_spec, &shard_index, &shard_count);
  }

  core::Scenario scenario =
      plan_scenario(plan, a.plan_path, a.scenario_file);
  // The wire never carries the snapshot; re-freeze a local prototype so
  // the shard drains through the same COW clone path as a local run.
  if (a.use_world_cache) core::refreeze_snapshot(plan, scenario);

  core::Executor executor(scenario);
  core::ExecutorOptions opts;
  opts.jobs = a.jobs;
  opts.use_world_cache = a.use_world_cache;
  opts.use_redzone = a.use_redzone;

  long long flushes = 0;
  core::ShardDrainHooks hooks;
  if (a.checkpoint > 0) {
    // Catch SIGTERM only when the drain can actually act on it (the stop
    // flag is polled between checkpoint chunks). Without --checkpoint
    // the drain is one uninterruptible chunk and the default disposition
    // — terminate — is the right behavior, not a swallowed signal.
    std::signal(SIGTERM, on_sigterm);
    hooks.checkpoint_every = a.checkpoint;
    hooks.interrupted = [] { return g_preempted != 0; };
    hooks.on_checkpoint = [&](const core::ShardReport& r) {
      write_file_atomic(a.out_path, r.to_json());
      // The CI determinism hook: deliver the preemption signal to
      // ourselves after N flushes, through the real handler.
      if (a.preempt_after > 0 && ++flushes >= a.preempt_after)
        (void)std::raise(SIGTERM);
    };
  }

  core::ShardReport report =
      resuming ? core::resume_shard(executor, plan, partial, opts, hooks)
               : core::run_shard(executor, plan, shard_index, shard_count,
                                 opts, hooks);
  std::string json = report.to_json();
  if (a.out_path.empty()) {
    std::printf("%s", json.c_str());
    return report.complete ? 0 : 4;
  }
  write_file_atomic(a.out_path, json);
  std::printf("%s -> %s\n", core::render_shard_summary(report).c_str(),
              a.out_path.c_str());
  if (!report.complete) {
    std::fprintf(stderr,
                 "epa: preempted; partial report flushed to %s "
                 "(complete it with run-shard --resume)\n",
                 a.out_path.c_str());
    return 4;  // 4 = preempted, valid partial report on disk
  }
  return 0;
}

int cmd_merge(const std::string& plan_path,
              const std::vector<std::string>& shard_paths, bool as_json) {
  core::InjectionPlan plan = load_plan(plan_path);
  std::vector<core::ShardReport> shards;
  shards.reserve(shard_paths.size());
  // load_shard_report prefixes per-file failures with the path; the
  // paths double as labels so cross-shard validation failures (duplicate
  // shard, partial file, foreign plan) also name the offending file.
  for (const auto& path : shard_paths)
    shards.push_back(load_shard_report(path));
  core::CampaignResult r = core::merge_shard_reports(plan, shards,
                                                     shard_paths);
  std::printf("%s", (as_json ? core::render_json(r)
                             : core::render_report(r))
                        .c_str());
  return r.exploitable().empty() ? 0 : 3;  // same contract as `run`
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

struct WorkerArgs {
  std::string plan_path;
  std::string arena_path;        // --arena: shm data plane (binary plan +
                                 // per-lease report segments)
  std::string connect_host;      // --connect: tcp data plane
  std::string scenario_file;     // --scenario-file: spec instead of the
                                 // plan's scenario name
  int connect_port = 0;
  int jobs = 1;
  bool use_world_cache = true;
  bool use_redzone = true;       // --no-redzone: disable the memory oracle
  long long preempt_after = 0;   // self-preempt after N leases, or — with
                                 // --checkpoint — after N flushes (CI hook)
  std::size_t checkpoint = 0;    // flush partials every K outcomes
  long long drain_delay_ms = 0;  // sleep before each chunk (straggler hook)
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
int serve_leases(const WorkerArgs& a, FrameChannel& chan, long long* done) {
  const bool use_tcp = !a.connect_host.empty();
  std::optional<core::ShmArena> arena;
  core::InjectionPlan plan;
  std::string plan_src;
  if (use_tcp) {
    plan_src = a.connect_host + ":" + std::to_string(a.connect_port);
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
  } else if (!a.arena_path.empty()) {
    arena.emplace(core::ShmArena::open(a.arena_path));
    try {
      plan = core::plan_from_binary(arena->plan_data(), arena->plan_size());
    } catch (const core::WireError& e) {
      throw std::runtime_error(a.arena_path + ": " + e.what());
    }
    plan_src = a.arena_path;
  } else {
    plan = load_plan(a.plan_path);
    plan_src = a.plan_path;
  }
  core::Scenario scenario = plan_scenario(plan, plan_src, a.scenario_file);
  if (a.use_world_cache) core::refreeze_snapshot(plan, scenario);
  core::Executor executor(scenario);
  core::ExecutorOptions opts;
  opts.jobs = a.jobs;
  opts.use_world_cache = a.use_world_cache;
  opts.use_redzone = a.use_redzone;
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
      if (a.use_world_cache) core::refreeze_snapshot(plan, scenario);
      continue;
    }
    if (msg.type != core::ProtocolMsg::Type::lease) {
      std::fprintf(stderr, "epa: worker: unexpected command '%s'\n",
                   cmd.c_str());
      return 1;
    }
    std::size_t begin = msg.begin, end = msg.end;
    // The report target: `-` (the report follows DONE as a frame) or,
    // on the shm plane, `@<seq>` (the lease's arena segment).
    const std::string& target = msg.target;
    std::size_t seq = 0;
    bool target_ok = !arena && target == "-";
    if (arena && target.size() > 1 && target[0] == '@' &&
        std::isdigit(static_cast<unsigned char>(target[1]))) {
      errno = 0;
      char* tok_end = nullptr;
      seq = std::strtoull(target.c_str() + 1, &tok_end, 10);
      target_ok = errno != ERANGE && *tok_end == '\0';
    }
    if (!target_ok) {
      std::fprintf(stderr,
                   "epa: worker: lease target must be %s, got '%s'\n",
                   arena ? "@<seq> (an arena segment)"
                         : "'-' (the report returns as a frame)",
                   target.c_str());
      return 1;
    }
    if (g_preempted) {
      std::fprintf(stderr,
                   "epa: worker preempted; lease [%zu, %zu) not drained\n",
                   begin, end);
      return 4;  // the orchestrator re-leases [begin, end)
    }

    // The shm plane lands partial and final reports in the lease's
    // segment, bounds-checked first: a report that outgrows its
    // segment is a clean worker failure, never a neighboring lease's
    // bytes overwritten. The other planes send the finished report as
    // the frame after DONE.
    std::size_t flushed_bytes = 0;
    auto flush = [&](const core::ShardReport& r) {
      if (!arena) return;
      std::string bin = core::shard_report_to_binary(r);
      if (bin.size() > arena->segment_bytes())
        throw std::runtime_error(
            "worker: lease " + std::to_string(seq) + " report (" +
            std::to_string(bin.size()) +
            " bytes) exceeds the arena segment capacity (" +
            std::to_string(arena->segment_bytes()) + " bytes)");
      std::memcpy(arena->segment(seq), bin.data(), bin.size());
      flushed_bytes = bin.size();
    };

    bool steal_requested = false;
    std::size_t chunks = 0;
    core::ShardDrainHooks hooks;
    if (a.checkpoint > 0) {
      hooks.checkpoint_every = a.checkpoint;
      hooks.interrupted = [&] {
        // The straggler hook: slow every chunk down so CI can force a
        // lease split deterministically.
        if (a.drain_delay_ms > 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(a.drain_delay_ms));
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
      hooks.on_checkpoint = [&](const core::ShardReport& r) {
        ++chunks;
        flush(r);
        // Heartbeat at every checkpoint: the coordinator's deadman
        // only trusts a worker it has heard from recently.
        chan.send(core::format_ping());
        // CI determinism hook (--checkpoint mode): preempt mid-lease
        // at the Nth flush, counted across the worker's whole lifetime
        // so replacements make progress before being preempted too.
        if (a.preempt_after > 0 && ++flushes >= a.preempt_after)
          (void)std::raise(SIGTERM);
      };
    }
    core::ShardReport report =
        core::run_lease(executor, plan, begin, end, opts, hooks);
    if (!report.complete && g_preempted) {
      // Preempted mid-lease: flush the partial (shm, for post-mortems;
      // the orchestrator re-drains the whole range) and exit *without*
      // DONE — a DONE always names a complete report.
      flush(report);
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
    if (arena) {
      // Flush *before* DONE: a DONE always names a readable, complete
      // report, even if this worker dies right after.
      flush(report);
      chan.send(core::format_done(begin, end, arena->segment_offset(seq),
                                  flushed_bytes));
    } else {
      chan.send(core::format_done(begin, end));
      chan.send(core::shard_report_to_binary(report));
    }
    ++*done;
    // CI determinism hook (lease mode): deliver the preemption signal
    // to ourselves after N served leases, through the real handler.
    if (a.checkpoint == 0 && a.preempt_after > 0 && *done >= a.preempt_after)
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
/// Where the plan comes from and where lease reports go:
///   plan file  LEASE target `-`: each DONE is followed by the lease's
///              binary report frame.
///   --arena    the arena's binary plan region (core/arena.hpp); LEASE
///              target `@<seq>` names the lease's segment, reports (and
///              checkpoint partials) are encoded straight into it, and
///              DONE carries the (offset, length) handoff.
///   --connect  HELLO up, the binary plan down as the first frame, then
///              the plan-file exchange over the socket.
int cmd_worker(const WorkerArgs& a) {
  const bool use_tcp = !a.connect_host.empty();
  const int sock =
      use_tcp ? net::tcp_connect(a.connect_host, a.connect_port) : -1;
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

enum class DataPlane { pipe, shm, tcp };

DataPlane data_plane_flag(const std::string& flag, int argc, char** argv,
                          int* i) {
  std::string v = flag_value(flag, argc, argv, i);
  if (v == "pipe") return DataPlane::pipe;
  if (v == "shm") return DataPlane::shm;
  if (v == "tcp") return DataPlane::tcp;
  flag_fail(flag, "value '" + v + "' is not 'pipe', 'shm', or 'tcp'");
}

/// Where a local fleet's plan and arena files go: `dir` (created if
/// missing), or a fresh $TMPDIR/epa-<cmd>.XXXXXX.
std::string fleet_dir(const std::string& dir, const char* cmd) {
  if (dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") + "/epa-" +
                       cmd + ".XXXXXX";
    if (!::mkdtemp(tmpl.data()))
      throw std::runtime_error(std::string("cannot create temp dir: ") +
                               std::strerror(errno));
    return tmpl;
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
    throw std::runtime_error("cannot create '" + dir +
                             "': " + std::strerror(errno));
  return dir;
}

/// The transport for one fleet draining `plan`. tcp listens for
/// `workers` dial-ins; pipe and shm fork workers configured by `cfg`,
/// with the plan written to `dir` as JSON (pipe) or frozen into an arena
/// there with one segment per lease seq in `leases` (shm).
std::unique_ptr<core::Transport> make_transport(
    const char* cmd, DataPlane plane, int workers, int listen_port,
    const std::string& port_file, core::LocalProcessConfig cfg,
    const std::string& dir, const core::InjectionPlan& plan,
    const std::vector<core::Lease>& leases) {
  if (plane == DataPlane::tcp) {
    net::TcpTransportConfig tcfg;
    tcfg.listen_port = listen_port;
    tcfg.port_file = port_file;
    tcfg.workers = workers;
    auto t = std::make_unique<net::TcpTransport>(tcfg, plan);
    std::fprintf(stderr,
                 "epa %s: listening on port %d; waiting for %d worker(s) "
                 "(epa_cli worker --connect HOST:%d)\n",
                 cmd, t->port(), workers, t->port());
    return t;
  }
  cfg.out_dir = dir;
  cfg.file_prefix = plan.scenario_name;
  if (plane == DataPlane::shm)
    return std::make_unique<core::ShmLocalTransport>(cfg, plan, leases);
  cfg.plan_path = dir + "/" + plan.scenario_name + ".plan.json";
  write_file(cfg.plan_path, plan.to_json());
  return std::make_unique<core::LocalProcessTransport>(cfg);
}

/// `--lease auto` (the default): size leases from the measured per-item
/// cost. Planning runs the scenario once (the trace run), so the
/// planning wall time is a live sample of roughly one build plus one
/// run on this machine. Targeting ~250ms of drain per lease gives
/// build-heavy scenarios smaller initial leases — rebalancing around
/// stragglers and preemptions happens at lease grain, so an expensive
/// lease is a long time to be stuck — while the classic
/// items/(workers*4) grain stays the ceiling, so cheap scenarios keep
/// marginal per-lease costs. Lease sizing never changes merged output
/// (outcomes land by stable id); only scheduling granularity moves.
std::size_t auto_lease_items(std::size_t plan_items, int workers,
                             double plan_ms) {
  const std::size_t grain = std::max<std::size_t>(
      1, plan_items / (static_cast<std::size_t>(workers) * 4));
  const double per_item_ms = plan_ms / 2.0;  // trace ~ build + one run
  if (per_item_ms <= 0.0) return grain;
  const double by_cost = 250.0 / per_item_ms;
  if (by_cost >= static_cast<double>(grain)) return grain;
  return std::max<std::size_t>(1, static_cast<std::size_t>(by_cost));
}

/// Parse a `--lease` value: `auto` (measured sizing) or an explicit
/// item count — the same strict validation every numeric flag gets.
void parse_lease_flag(const std::string& flag, int argc, char** argv,
                      int* i, long long* lease, bool* lease_auto) {
  std::string v = flag_value(flag, argc, argv, i);
  if (v == "auto") {
    *lease_auto = true;
    return;
  }
  errno = 0;
  char* end = nullptr;
  long long k = std::strtoll(v.c_str(), &end, 10);
  if (errno == ERANGE || end == v.c_str() || *end != '\0')
    flag_fail(flag, "value '" + v + "' is not an integer or 'auto'");
  if (k < 1 || k > (1LL << 30))
    flag_fail(flag, "value " + v + " out of range [1, " +
                        std::to_string(1LL << 30) + "]");
  *lease = k;
  *lease_auto = false;
}

struct OrchestrateArgs {
  std::string scenario;
  std::string scenario_file;  // --scenario-file: spec instead of a name
  bool all = false;
  int workers = 2;
  long long lease = 0;          // items per lease (explicit --lease K)
  bool lease_auto = true;       // --lease auto: measured sizing (default)
  int jobs = 1;                 // per-worker --jobs
  long long preempt_after = 0;  // forwarded to workers (CI hook)
  long long checkpoint = 0;     // forwarded to workers: mid-lease partials
  long long drain_delay_ms = 0;  // forwarded: straggler hook (CI)
  DataPlane plane = DataPlane::pipe;
  long long deadman_ms = 0;     // silence budget; 0 = no deadman
  int listen_port = 0;          // tcp: port to bind (0 = ephemeral)
  std::string port_file;        // tcp: where to publish the bound port
  bool as_json = false;
  bool use_world_cache = true;
  bool use_redzone = true;  // --no-redzone forwarded to workers
  std::string dir;  // plan + lease/arena files; empty = fresh temp dir
};

int cmd_orchestrate(const OrchestrateArgs& a, const char* argv0) {
  const bool tcp = a.plane == DataPlane::tcp;
  // The tcp plane moves no files; nothing to create.
  const std::string dir = tcp ? a.dir : fleet_dir(a.dir, "orch");

  std::vector<core::Scenario> scenarios;
  if (a.all) {
    scenarios = apps::all_scenarios();
  } else if (!a.scenario_file.empty()) {
    scenarios.push_back(scenario_from_file(a.scenario_file));
  } else {
    bool found = false;
    core::Scenario s = find_scenario(a.scenario, found);
    if (!found) return unknown_scenario(a.scenario);
    scenarios.push_back(std::move(s));
  }

  core::SweepResult sweep;
  for (const core::Scenario& scenario : scenarios) {
    // The coordinator plans in-process and keeps the plan in memory for
    // the merge; only workers pay a plan parse (once per process).
    core::CampaignOptions popts;
    popts.use_world_cache = false;  // the plan file carries no snapshot
    popts.use_redzone = a.use_redzone;
    const auto plan_t0 = std::chrono::steady_clock::now();
    core::InjectionPlan plan = core::Planner(scenario).plan(popts);
    const double plan_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - plan_t0)
            .count();

    core::OrchestratorOptions oopts;
    oopts.workers = a.workers;
    oopts.lease_items =
        a.lease_auto
            ? auto_lease_items(plan.items.size(), a.workers, plan_ms)
            : static_cast<std::size_t>(a.lease);
    if (a.lease_auto)
      std::fprintf(stderr,
                   "epa orchestrate: %s: auto lease grain %zu item(s) "
                   "(planning took %.0f ms)\n",
                   scenario.name.c_str(), oopts.lease_items, plan_ms);
    oopts.deadman_ms = a.deadman_ms;

    core::LocalProcessConfig cfg;
    cfg.epa_cli = core::LocalProcessTransport::self_exe(argv0);
    // A spec file is forwarded so workers compile the same spec the
    // coordinator planned, even when its name is not in the registry.
    cfg.scenario_file = a.scenario_file;
    cfg.jobs = a.jobs;
    cfg.use_world_cache = a.use_world_cache;
    cfg.use_redzone = a.use_redzone;
    cfg.preempt_after = a.preempt_after;
    cfg.checkpoint = a.checkpoint;
    cfg.drain_delay_ms = a.drain_delay_ms;
    // The shm arena is sized against the exact lease partition
    // orchestrate() will schedule (plus the stolen-tail reserve).
    std::unique_ptr<core::Transport> transport = make_transport(
        "orchestrate", a.plane, a.workers, a.listen_port, a.port_file, cfg,
        dir, plan,
        a.plane == DataPlane::shm
            ? core::lease_partition(plan.items.size(), oopts)
            : std::vector<core::Lease>{});

    core::OrchestratorStats stats;
    sweep.results.push_back(
        core::orchestrate(plan, *transport, oopts, &stats));
    std::fprintf(stderr,
                 "epa orchestrate: %s: %zu leases across %zu worker(s) "
                 "(%zu re-leased, %zu preempted, %zu spawned, %zu split, "
                 "%zu deadman)\n",
                 scenario.name.c_str(), stats.leases_total,
                 static_cast<std::size_t>(a.workers), stats.leases_released,
                 stats.workers_preempted, stats.workers_spawned,
                 stats.leases_split, stats.deadman_expiries);
  }
  if (!tcp)
    std::fprintf(stderr, "epa orchestrate: %s files in %s\n",
                 a.plane == DataPlane::shm ? "arena" : "plan", dir.c_str());
  // The adequacy summary rides stderr: stdout stays byte-identical to a
  // single-process run/sweep on every data plane.
  vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(sweep.results);
  std::fprintf(stderr,
               "epa orchestrate: vulnerability coverage %zu/%d EAI "
               "classes (%.1f%%)\n",
               cov.fired.size(), cov.total(), 100.0 * cov.fraction());
  // One line per fired class: the search smoke leg diffs these against a
  // coverage-guided search's to prove the search lost no class.
  for (const auto& c : cov.fired)
    std::fprintf(stderr, "epa orchestrate: fired %s\n", c.c_str());

  if (a.all) return print_sweep(sweep, a.as_json);
  const core::CampaignResult& r = sweep.results.front();
  std::printf("%s", (a.as_json ? core::render_json(r)
                               : core::render_report(r))
                        .c_str());
  return r.exploitable().empty() ? 0 : 3;  // same contract as `run`
}

// --- coverage-guided search (core/search.hpp, docs/SEARCH.md) ---------------

struct SearchArgs {
  std::string scenario;
  std::string scenario_file;  // --scenario-file: spec instead of a name
  std::string family;         // --family F: cumulative sequential search
  std::uint64_t seed = 1;
  long long budget = 0;       // required: total injection runs
  long long batch = 16;       // wave size cap
  int jobs = 1;
  int workers = 0;            // 0 = in-process drain; > 0 = orchestrated
  DataPlane plane = DataPlane::pipe;
  long long lease = 0;
  bool lease_auto = true;
  int listen_port = 0;        // tcp
  std::string port_file;      // tcp
  std::string state_path;     // --state FILE: checkpoint at wave barriers
  bool resume = false;        // --resume: replay --state when it exists
  long long stop_after = 0;   // stop after W wave barriers, exit 4
  bool as_json = false;
  bool use_world_cache = true;
  bool use_redzone = true;
  std::string dir;
};

/// The search drive: one SearchWorkSource per scenario, drained either
/// in-process (run_search) or across a worker fleet (orchestrate_source
/// — the workers learn generated items via protocol FEEDBACK). A family
/// search runs its members sequentially through ONE shared NoveltyScorer
/// with the budget split evenly (remainder to the first member), so a
/// class fired by member one stops paying rent in member two. Exit
/// contract: 0/3 like `run`, 4 when --stop-after ended the search early
/// (checkpoint flushed; finish with --resume).
int cmd_search(const SearchArgs& a, const char* argv0) {
  std::vector<core::Scenario> scenarios;
  if (!a.family.empty()) {
    const core::ScenarioFamily* fam = apps::find_family(a.family);
    if (!fam) {
      std::fprintf(stderr, "epa: unknown family '%s'\nepa: %s\n",
                   a.family.c_str(), apps::scenario_names_hint().c_str());
      return 1;
    }
    scenarios = apps::family_scenarios(*fam);
  } else if (!a.scenario_file.empty()) {
    scenarios.push_back(scenario_from_file(a.scenario_file));
  } else {
    bool found = false;
    core::Scenario s = find_scenario(a.scenario, found);
    if (!found) return unknown_scenario(a.scenario);
    scenarios.push_back(std::move(s));
  }

  const bool orchestrated = a.workers > 0;
  const std::string dir = orchestrated && a.plane != DataPlane::tcp
                              ? fleet_dir(a.dir, "search")
                              : a.dir;

  core::NoveltyScorer scorer;  // shared across family members
  core::SweepResult sweep;
  std::size_t exhaustive_items = 0;
  std::size_t generated_items = 0;
  for (std::size_t m = 0; m < scenarios.size(); ++m) {
    const core::Scenario& scenario = scenarios[m];
    const std::size_t budget = static_cast<std::size_t>(a.budget);
    const std::size_t member_budget =
        budget / scenarios.size() +
        (m == 0 ? budget % scenarios.size() : 0);

    // The exhaustive plan is the candidate frontier; its planning wall
    // time doubles as the per-item cost sample for --lease auto.
    core::CampaignOptions popts;
    popts.use_world_cache = orchestrated ? false : a.use_world_cache;
    popts.use_redzone = a.use_redzone;
    const auto plan_t0 = std::chrono::steady_clock::now();
    core::InjectionPlan base = core::Planner(scenario).plan(popts);
    const double plan_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - plan_t0)
            .count();
    exhaustive_items += base.items.size();

    core::SearchOptions sopts;
    sopts.seed = a.seed;
    sopts.budget = member_budget;
    sopts.batch = static_cast<std::size_t>(a.batch);
    sopts.classify = [](core::FaultKind kind, const std::string& name) {
      return vulndb::coverage_class(kind, name);
    };
    core::SearchWorkSource source(std::move(base), sopts, &scorer);

    // Resume replays the checkpointed waves *before* the checkpoint hook
    // is installed, so replay never re-writes the state file. A missing
    // state file is a fresh start — a search killed before its first
    // wave barrier left nothing behind, by design.
    if (a.resume) {
      struct stat st{};
      if (::stat(a.state_path.c_str(), &st) == 0)
        source.resume(core::search_state_from_json(read_file(a.state_path)));
    }
    if (!a.state_path.empty())
      source.set_checkpoint([&](const core::SearchState& s) {
        write_file_atomic(a.state_path, core::search_state_to_json(s));
      });

    core::CampaignResult result;
    if (!orchestrated) {
      core::Executor executor(scenario);
      core::ExecutorOptions eopts;
      eopts.jobs = a.jobs;
      eopts.use_world_cache = a.use_world_cache;
      eopts.use_redzone = a.use_redzone;
      core::SearchRunResult run = core::run_search(
          executor, source, eopts, static_cast<std::size_t>(a.stop_after));
      if (run.stopped) {
        std::fprintf(stderr,
                     "epa search: stopped after %zu wave(s); state "
                     "checkpointed to %s (finish with --resume)\n",
                     run.waves, a.state_path.c_str());
        return 4;
      }
      result = std::move(run.result);
    } else {
      core::OrchestratorOptions oopts;
      oopts.workers = a.workers;
      // Waves are at most `batch` items, so the auto grain sizes leases
      // against the wave, not the (unbounded) generated stream.
      oopts.lease_items =
          a.lease_auto
              ? auto_lease_items(sopts.batch, a.workers, plan_ms)
              : static_cast<std::size_t>(a.lease);

      const std::size_t known = source.plan().items.size();
      core::LocalProcessConfig cfg;
      cfg.epa_cli = core::LocalProcessTransport::self_exe(argv0);
      cfg.scenario_file = a.scenario_file;
      cfg.jobs = a.jobs;
      cfg.use_world_cache = a.use_world_cache;
      cfg.use_redzone = a.use_redzone;
      // The shm arena needs a segment per lease seq up front, but search
      // leases are cut per wave as items are generated. Bound the seq
      // space instead of enumerating it: every lease covers at least one
      // item and the stream is capped at the budget, so budget leases
      // (the ctor adds the stolen-tail reserve) of the grain's span each
      // cover the worst case.
      std::vector<core::Lease> synth;
      if (a.plane == DataPlane::shm) {
        const std::size_t max_lease = std::max<std::size_t>(
            1, std::min(oopts.lease_items,
                        std::min(sopts.batch,
                                 std::max<std::size_t>(member_budget, 1))));
        for (std::size_t s = 0; s < std::max<std::size_t>(member_budget, 1);
             ++s)
          synth.push_back({s, 0, max_lease});
      }
      std::unique_ptr<core::Transport> transport = make_transport(
          "search", a.plane, a.workers, a.listen_port, a.port_file, cfg, dir,
          source.plan(), synth);

      core::OrchestratorStats stats;
      result = core::orchestrate_source(source, *transport, oopts, &stats,
                                        known);
      std::fprintf(stderr,
                   "epa search: %s: %zu leases across %zu worker(s) "
                   "(%zu re-leased, %zu preempted, %zu spawned, %zu split)\n",
                   scenario.name.c_str(), stats.leases_total,
                   static_cast<std::size_t>(a.workers),
                   stats.leases_released, stats.workers_preempted,
                   stats.workers_spawned, stats.leases_split);
    }
    generated_items += source.plan().items.size();
    std::fprintf(stderr,
                 "epa search: %s: %zu item(s) in %zu wave(s), budget %zu\n",
                 scenario.name.c_str(), source.plan().items.size(),
                 source.waves_generated(), member_budget);
    sweep.results.push_back(std::move(result));
  }

  // The adequacy lines ride stderr (stdout is the report, byte-compared
  // across planes and worker counts by the determinism tests). The fired
  // classes are listed one per line so adequacy tooling — and the CI
  // superset check against an exhaustive drain — can consume them
  // without parsing the report.
  vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(sweep.results);
  std::fprintf(stderr,
               "epa search: %zu of %zu exhaustive item(s) spent (%.1f%%), "
               "vulnerability coverage %zu/%d EAI classes (%.1f%%)\n",
               generated_items, exhaustive_items,
               exhaustive_items == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(generated_items) /
                         static_cast<double>(exhaustive_items),
               cov.fired.size(), cov.total(), 100.0 * cov.fraction());
  for (const auto& c : cov.fired)
    std::fprintf(stderr, "epa search: fired %s\n", c.c_str());

  if (scenarios.size() > 1) return print_sweep(sweep, a.as_json, true);
  const core::CampaignResult& r = sweep.results.front();
  std::printf("%s", (a.as_json ? core::render_json(r)
                               : core::render_report(r))
                        .c_str());
  return r.exploitable().empty() ? 0 : 3;  // same contract as `run`
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  if (cmd == "list") return cmd_list();
  if (cmd == "scenarios") {
    std::string family, spec_name;
    bool as_json = false;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        as_json = true;
      } else if (arg == "--family") {
        family = flag_value(arg, argc, argv, &i);
      } else if (arg == "--spec") {
        spec_name = flag_value(arg, argc, argv, &i);
      } else {
        std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
    if (!family.empty() && !spec_name.empty()) {
      std::fprintf(stderr, "epa: --family and --spec are exclusive\n");
      return 1;
    }
    return guarded([&] { return cmd_scenarios(family, spec_name, as_json); });
  }
  if (cmd == "db") return cmd_db(argc >= 3 ? argv[2] : "");
  if (cmd == "sweep") {
    core::SweepOptions opts;
    bool as_json = false;
    std::string family, scenario_file;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        as_json = true;
      } else if (arg == "--merge") {
        opts.campaign.merge_equivalent_sites = true;
      } else if (arg == "--jobs") {
        opts.jobs = static_cast<int>(int_flag(arg, argc, argv, &i, 1, 4096));
      } else if (arg == "--seed") {
        opts.campaign.seed = uint64_flag(arg, argc, argv, &i);
      } else if (arg == "--family") {
        family = flag_value(arg, argc, argv, &i);
      } else if (arg == "--scenario-file") {
        scenario_file = flag_value(arg, argc, argv, &i);
      } else if (arg == "--no-world-cache") {
        opts.campaign.use_world_cache = false;
      } else if (arg == "--no-redzone") {
        opts.campaign.use_redzone = false;
      } else {
        std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
    if (!family.empty() && !scenario_file.empty()) {
      std::fprintf(stderr,
                   "epa: --family and --scenario-file are exclusive\n");
      return 1;
    }
    return guarded([&] {
      return cmd_sweep(opts, as_json, family, scenario_file);
    });
  }
  if (cmd == "plan") {
    core::CampaignOptions opts;
    core::SweepOptions sweep_opts;
    bool all = false, saw_out_dir = false, saw_jobs = false;
    bool saw_sites = false, saw_coverage = false, binary = false;
    std::string scenario_name, scenario_file, out_path, out_dir = ".";
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--all") {
        all = true;
      } else if (arg == "--binary") {
        binary = true;
      } else if (arg == "--merge") {
        opts.merge_equivalent_sites = true;
      } else if (arg == "--sites") {
        opts.only_sites = split(flag_value(arg, argc, argv, &i), ',');
        saw_sites = true;
      } else if (arg == "--coverage") {
        opts.target_interaction_coverage =
            unit_interval_flag(arg, argc, argv, &i);
        saw_coverage = true;
      } else if (arg == "--seed") {
        opts.seed = uint64_flag(arg, argc, argv, &i);
      } else if (arg == "--jobs") {
        sweep_opts.jobs =
            static_cast<int>(int_flag(arg, argc, argv, &i, 1, 4096));
        saw_jobs = true;
      } else if (arg == "--out") {
        out_path = flag_value(arg, argc, argv, &i);
      } else if (arg == "--out-dir") {
        out_dir = flag_value(arg, argc, argv, &i);
        saw_out_dir = true;
      } else if (arg == "--scenario-file") {
        scenario_file = flag_value(arg, argc, argv, &i);
      } else if (!starts_with(arg, "--") && scenario_name.empty()) {
        scenario_name = arg;
      } else {
        std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
    // Exactly one of --all / <scenario> / --scenario-file must be given,
    // and flags must match the mode — a silently ignored flag hides a
    // typo'd command.
    if ((all ? 1 : 0) + (scenario_name.empty() ? 0 : 1) +
            (scenario_file.empty() ? 0 : 1) !=
        1)
      return usage();
    if (all && !out_path.empty()) {
      std::fprintf(stderr,
                   "epa: --out applies to single-scenario plan only "
                   "(use --out-dir with --all)\n");
      return usage();
    }
    if (all && binary) {
      std::fprintf(stderr,
                   "epa: --binary applies to single-scenario plan only\n");
      return usage();
    }
    if (all && (saw_sites || saw_coverage)) {
      // Site tags are per-scenario: a typo'd --sites under --all would
      // silently plan zero work items for every scenario.
      std::fprintf(stderr,
                   "epa: %s applies to single-scenario plan only\n",
                   saw_sites ? "--sites" : "--coverage");
      return usage();
    }
    if (!all && (saw_out_dir || saw_jobs)) {
      std::fprintf(stderr,
                   "epa: %s applies to plan --all only\n",
                   saw_out_dir ? "--out-dir" : "--jobs");
      return usage();
    }
    sweep_opts.campaign = opts;
    return guarded([&] {
      return all ? cmd_plan_all(sweep_opts, out_dir)
                 : cmd_plan(scenario_name, scenario_file, opts, out_path,
                            binary);
    });
  }
  if (cmd == "run-shard") {
    RunShardArgs a;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--shard") {
        a.shard_spec = flag_value(arg, argc, argv, &i);
      } else if (arg == "--resume") {
        a.resume_path = flag_value(arg, argc, argv, &i);
      } else if (arg == "--out") {
        a.out_path = flag_value(arg, argc, argv, &i);
      } else if (arg == "--scenario-file") {
        a.scenario_file = flag_value(arg, argc, argv, &i);
      } else if (arg == "--jobs") {
        a.jobs = static_cast<int>(int_flag(arg, argc, argv, &i, 1, 4096));
      } else if (arg == "--checkpoint") {
        a.checkpoint = static_cast<std::size_t>(
            int_flag(arg, argc, argv, &i, 1, 1LL << 30));
      } else if (arg == "--preempt-after") {
        a.preempt_after = int_flag(arg, argc, argv, &i, 1, 1LL << 30);
      } else if (arg == "--no-world-cache") {
        a.use_world_cache = false;
      } else if (arg == "--no-redzone") {
        a.use_redzone = false;
      } else if (!starts_with(arg, "--") && a.plan_path.empty()) {
        a.plan_path = arg;
      } else {
        std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
    if (a.plan_path.empty()) return usage();
    if (a.shard_spec.empty() && a.resume_path.empty()) return usage();
    if (a.checkpoint > 0 && a.out_path.empty() && a.resume_path.empty()) {
      std::fprintf(stderr,
                   "epa: --checkpoint needs --out (checkpoints are flushed "
                   "to the report file)\n");
      return 1;
    }
    if (a.preempt_after > 0 && a.checkpoint == 0) {
      std::fprintf(stderr,
                   "epa: --preempt-after needs --checkpoint (preemption is "
                   "delivered at a checkpoint flush)\n");
      return 1;
    }
    return guarded([&] { return cmd_run_shard(std::move(a)); });
  }
  if (cmd == "worker") {
    WorkerArgs a;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--jobs") {
        a.jobs = static_cast<int>(int_flag(arg, argc, argv, &i, 1, 4096));
      } else if (arg == "--preempt-after") {
        a.preempt_after = int_flag(arg, argc, argv, &i, 1, 1LL << 30);
      } else if (arg == "--checkpoint") {
        a.checkpoint = static_cast<std::size_t>(
            int_flag(arg, argc, argv, &i, 1, 1LL << 30));
      } else if (arg == "--drain-delay-ms") {
        a.drain_delay_ms = int_flag(arg, argc, argv, &i, 1, 1LL << 20);
      } else if (arg == "--arena") {
        a.arena_path = flag_value(arg, argc, argv, &i);
      } else if (arg == "--scenario-file") {
        a.scenario_file = flag_value(arg, argc, argv, &i);
      } else if (arg == "--connect") {
        // HOST:PORT, split on the *last* colon; the port goes through
        // the same strict strtoll validation as every numeric flag.
        std::string v = flag_value(arg, argc, argv, &i);
        auto colon = v.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == v.size())
          flag_fail(arg, "value '" + v + "' is not HOST:PORT");
        errno = 0;
        char* end = nullptr;
        long long port = std::strtoll(v.c_str() + colon + 1, &end, 10);
        if (errno == ERANGE || end == v.c_str() + colon + 1 ||
            *end != '\0' || port < 1 || port > 65535)
          flag_fail(arg, "port '" + v.substr(colon + 1) +
                             "' is not in [1, 65535]");
        a.connect_host = v.substr(0, colon);
        a.connect_port = static_cast<int>(port);
      } else if (arg == "--no-world-cache") {
        a.use_world_cache = false;
      } else if (arg == "--no-redzone") {
        a.use_redzone = false;
      } else if (!starts_with(arg, "--") && a.plan_path.empty()) {
        a.plan_path = arg;
      } else {
        std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
    // Exactly one data plane: a plan file (pipe), --arena (shm), or
    // --connect (tcp).
    int planes = (!a.plan_path.empty() ? 1 : 0) +
                 (!a.arena_path.empty() ? 1 : 0) +
                 (!a.connect_host.empty() ? 1 : 0);
    if (planes > 1) {
      std::fprintf(stderr,
                   "epa: worker takes exactly one of a plan file, --arena, "
                   "or --connect\n");
      return 1;
    }
    if (planes == 0) return usage();
    if (a.drain_delay_ms > 0 && a.checkpoint == 0) {
      std::fprintf(stderr,
                   "epa: --drain-delay-ms needs --checkpoint (the delay is "
                   "applied per checkpoint chunk)\n");
      return 1;
    }
    return guarded([&] { return cmd_worker(a); });
  }
  if (cmd == "orchestrate") {
    OrchestrateArgs a;
    bool saw_jobs = false, saw_preempt = false, saw_checkpoint = false;
    bool saw_drain = false, saw_no_cache = false, saw_dir = false;
    bool saw_listen = false, saw_port_file = false, saw_no_redzone = false;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--all") {
        a.all = true;
      } else if (arg == "--workers") {
        a.workers = static_cast<int>(int_flag(arg, argc, argv, &i, 1, 1024));
      } else if (arg == "--lease") {
        parse_lease_flag(arg, argc, argv, &i, &a.lease, &a.lease_auto);
      } else if (arg == "--jobs") {
        a.jobs = static_cast<int>(int_flag(arg, argc, argv, &i, 1, 4096));
        saw_jobs = true;
      } else if (arg == "--preempt-after") {
        a.preempt_after = int_flag(arg, argc, argv, &i, 1, 1LL << 30);
        saw_preempt = true;
      } else if (arg == "--checkpoint") {
        a.checkpoint = int_flag(arg, argc, argv, &i, 1, 1LL << 30);
        saw_checkpoint = true;
      } else if (arg == "--drain-delay-ms") {
        a.drain_delay_ms = int_flag(arg, argc, argv, &i, 1, 1LL << 20);
        saw_drain = true;
      } else if (arg == "--deadman-ms") {
        a.deadman_ms = int_flag(arg, argc, argv, &i, 1, 1LL << 30);
      } else if (arg == "--listen") {
        a.listen_port =
            static_cast<int>(int_flag(arg, argc, argv, &i, 0, 65535));
        saw_listen = true;
      } else if (arg == "--port-file") {
        a.port_file = flag_value(arg, argc, argv, &i);
        saw_port_file = true;
      } else if (arg == "--data-plane") {
        a.plane = data_plane_flag(arg, argc, argv, &i);
      } else if (arg == "--json") {
        a.as_json = true;
      } else if (arg == "--no-world-cache") {
        a.use_world_cache = false;
        saw_no_cache = true;
      } else if (arg == "--no-redzone") {
        a.use_redzone = false;
        saw_no_redzone = true;
      } else if (arg == "--dir") {
        a.dir = flag_value(arg, argc, argv, &i);
        saw_dir = true;
      } else if (arg == "--scenario-file") {
        a.scenario_file = flag_value(arg, argc, argv, &i);
      } else if (!starts_with(arg, "--") && a.scenario.empty()) {
        a.scenario = arg;
      } else {
        std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
    // Exactly one of --all / <scenario> / --scenario-file, like `plan`.
    if ((a.all ? 1 : 0) + (a.scenario.empty() ? 0 : 1) +
            (a.scenario_file.empty() ? 0 : 1) !=
        1)
      return usage();
    if (a.plane == DataPlane::tcp) {
      // tcp workers are started by the operator, not forked by
      // orchestrate — worker-side flags have nowhere to be forwarded.
      if (a.all) {
        std::fprintf(stderr,
                     "epa: --all needs the pipe or shm data plane (a tcp "
                     "fleet parses one plan at connect time)\n");
        return 1;
      }
      const char* worker_flag =
          saw_jobs ? "--jobs"
          : saw_preempt ? "--preempt-after"
          : saw_checkpoint ? "--checkpoint"
          : saw_drain ? "--drain-delay-ms"
          : saw_no_cache ? "--no-world-cache"
          : saw_no_redzone ? "--no-redzone"
          : saw_dir ? "--dir"
                    : nullptr;
      if (worker_flag) {
        std::fprintf(stderr,
                     "epa: %s is worker-side; pass it to `epa_cli worker "
                     "--connect` (tcp workers are not spawned by "
                     "orchestrate)\n",
                     worker_flag);
        return 1;
      }
    } else {
      if (saw_listen || saw_port_file) {
        std::fprintf(stderr, "epa: %s needs --data-plane tcp\n",
                     saw_listen ? "--listen" : "--port-file");
        return 1;
      }
      if (a.deadman_ms > 0 && a.checkpoint == 0) {
        std::fprintf(stderr,
                     "epa: --deadman-ms needs --checkpoint on the pipe/shm "
                     "data planes (heartbeats are sent at checkpoint "
                     "flushes)\n");
        return 1;
      }
      if (a.drain_delay_ms > 0 && a.checkpoint == 0) {
        std::fprintf(stderr,
                     "epa: --drain-delay-ms needs --checkpoint (the delay "
                     "is applied per checkpoint chunk)\n");
        return 1;
      }
    }
    return guarded([&] { return cmd_orchestrate(a, argv[0]); });
  }
  if (cmd == "search") {
    SearchArgs a;
    bool saw_budget = false, saw_listen = false, saw_port_file = false;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--budget") {
        a.budget = int_flag(arg, argc, argv, &i, 1, 1LL << 30);
        saw_budget = true;
      } else if (arg == "--seed") {
        a.seed = uint64_flag(arg, argc, argv, &i);
      } else if (arg == "--batch") {
        a.batch = int_flag(arg, argc, argv, &i, 1, 1LL << 20);
      } else if (arg == "--jobs") {
        a.jobs = static_cast<int>(int_flag(arg, argc, argv, &i, 1, 4096));
      } else if (arg == "--workers") {
        a.workers = static_cast<int>(int_flag(arg, argc, argv, &i, 1, 1024));
      } else if (arg == "--lease") {
        parse_lease_flag(arg, argc, argv, &i, &a.lease, &a.lease_auto);
      } else if (arg == "--data-plane") {
        a.plane = data_plane_flag(arg, argc, argv, &i);
      } else if (arg == "--listen") {
        a.listen_port =
            static_cast<int>(int_flag(arg, argc, argv, &i, 0, 65535));
        saw_listen = true;
      } else if (arg == "--port-file") {
        a.port_file = flag_value(arg, argc, argv, &i);
        saw_port_file = true;
      } else if (arg == "--state") {
        a.state_path = flag_value(arg, argc, argv, &i);
      } else if (arg == "--resume") {
        a.resume = true;
      } else if (arg == "--stop-after") {
        a.stop_after = int_flag(arg, argc, argv, &i, 1, 1LL << 30);
      } else if (arg == "--family") {
        a.family = flag_value(arg, argc, argv, &i);
      } else if (arg == "--scenario-file") {
        a.scenario_file = flag_value(arg, argc, argv, &i);
      } else if (arg == "--json") {
        a.as_json = true;
      } else if (arg == "--no-world-cache") {
        a.use_world_cache = false;
      } else if (arg == "--no-redzone") {
        a.use_redzone = false;
      } else if (arg == "--dir") {
        a.dir = flag_value(arg, argc, argv, &i);
      } else if (!starts_with(arg, "--") && a.scenario.empty()) {
        a.scenario = arg;
      } else {
        std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
    // Exactly one of <scenario> / --scenario-file / --family.
    if ((a.scenario.empty() ? 0 : 1) + (a.scenario_file.empty() ? 0 : 1) +
            (a.family.empty() ? 0 : 1) !=
        1)
      return usage();
    if (!saw_budget) {
      std::fprintf(stderr,
                   "epa: search needs --budget N (the total number of "
                   "injection runs to spend)\n");
      return 1;
    }
    if (a.resume && a.state_path.empty()) {
      std::fprintf(stderr, "epa: --resume needs --state FILE\n");
      return 1;
    }
    if (!a.family.empty() && (!a.state_path.empty() || a.stop_after > 0)) {
      // A family search interleaves members through one scorer; a
      // checkpoint of member N alone could not reproduce that state.
      std::fprintf(stderr,
                   "epa: %s works on a single scenario, not --family\n",
                   a.state_path.empty() ? "--stop-after" : "--state");
      return 1;
    }
    if (a.stop_after > 0 && a.workers > 0) {
      std::fprintf(stderr,
                   "epa: --stop-after drives the in-process drain; drop "
                   "--workers (orchestrated searches checkpoint at every "
                   "wave barrier anyway)\n");
      return 1;
    }
    if (a.stop_after > 0 && a.state_path.empty()) {
      std::fprintf(stderr,
                   "epa: --stop-after needs --state FILE (stopping without "
                   "a checkpoint would just discard the waves)\n");
      return 1;
    }
    if (a.plane == DataPlane::tcp) {
      if (a.workers == 0) {
        std::fprintf(stderr, "epa: --data-plane tcp needs --workers N\n");
        return 1;
      }
      if (!a.family.empty()) {
        std::fprintf(stderr,
                     "epa: --family needs the pipe or shm data plane (a tcp "
                     "fleet parses one plan at connect time)\n");
        return 1;
      }
    } else if (saw_listen || saw_port_file) {
      std::fprintf(stderr, "epa: %s needs --data-plane tcp\n",
                   saw_listen ? "--listen" : "--port-file");
      return 1;
    }
    return guarded([&] { return cmd_search(a, argv[0]); });
  }
  if (cmd == "merge") {
    std::string plan_path;
    std::vector<std::string> shard_paths;
    bool as_json = false;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        as_json = true;
      } else if (!starts_with(arg, "--")) {
        if (plan_path.empty())
          plan_path = arg;
        else
          shard_paths.push_back(arg);
      } else {
        std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
        return usage();
      }
    }
    if (plan_path.empty() || shard_paths.empty()) return usage();
    return guarded([&] { return cmd_merge(plan_path, shard_paths, as_json); });
  }
  if (cmd == "trace") {
    if (argc < 3) return usage();
    return cmd_trace(argv[2]);
  }
  if (cmd == "compare") {
    if (argc < 4) return usage();
    return cmd_compare(argv[2], argv[3]);
  }
  if (cmd != "run") return usage();

  core::CampaignOptions opts;
  bool as_json = false;
  std::string scenario, scenario_file;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--merge") {
      opts.merge_equivalent_sites = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--sites") {
      opts.only_sites = split(flag_value(arg, argc, argv, &i), ',');
    } else if (arg == "--coverage") {
      opts.target_interaction_coverage =
          unit_interval_flag(arg, argc, argv, &i);
    } else if (arg == "--seed") {
      opts.seed = uint64_flag(arg, argc, argv, &i);
    } else if (arg == "--jobs") {
      opts.jobs = static_cast<int>(int_flag(arg, argc, argv, &i, 1, 4096));
    } else if (arg == "--scenario-file") {
      scenario_file = flag_value(arg, argc, argv, &i);
    } else if (arg == "--no-world-cache") {
      opts.use_world_cache = false;
    } else if (arg == "--no-redzone") {
      opts.use_redzone = false;
    } else if (!starts_with(arg, "--") && scenario.empty()) {
      scenario = arg;
    } else {
      std::fprintf(stderr, "epa: unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }
  // Exactly one of <scenario> / --scenario-file.
  if (scenario.empty() == scenario_file.empty()) return usage();
  return guarded([&] { return cmd_run(scenario, scenario_file, opts,
                                      as_json); });
}

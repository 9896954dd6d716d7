// Microbenchmarks (google-benchmark): cost of the substrate and of the
// interposition machinery. Supports the paper's automation claim — a
// full per-fault rebuild-and-rerun cycle is cheap enough to sweep entire
// catalogs.
//
// Besides the google-benchmark micro benches, main() times the full
// scenario suite through the MultiCampaign scheduler serially and in
// parallel and writes BENCH_perf_injection.json, so the runs/sec
// trajectory (and the serial-vs-parallel speedup) is tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/families.hpp"
#include "apps/lpr.hpp"
#include "apps/scenarios.hpp"
#include "apps/turnin.hpp"
#include "core/executor.hpp"
#include "core/injector.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "core/search.hpp"
#include "core/snapshot.hpp"
#include "core/wire.hpp"
#include "os/world.hpp"
#include "util/json.hpp"
#include "vulndb/coverage.hpp"

namespace {

using namespace ep;

const os::Site kS{"perf.c", 1, "probe"};

void BM_VfsResolveDeepPath(benchmark::State& state) {
  os::Kernel k;
  os::world::mkdirs(k, "/a/b/c/d/e/f/g");
  os::world::put_file(k, "/a/b/c/d/e/f/g/leaf", "x");
  for (auto _ : state) {
    auto r = k.vfs().resolve("/a/b/c/d/e/f/g/leaf", "/", os::kRootUid, 0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_VfsResolveDeepPath);

void BM_VfsSymlinkChainResolve(benchmark::State& state) {
  os::Kernel k;
  os::world::put_file(k, "/end", "x");
  std::string prev = "/end";
  for (int i = 0; i < 6; ++i) {
    std::string name = "/l" + std::to_string(i);
    os::world::put_symlink(k, name, prev);
    prev = name;
  }
  for (auto _ : state) {
    auto r = k.vfs().resolve(prev, "/", os::kRootUid, 0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_VfsSymlinkChainResolve);

void BM_OpenReadClose(benchmark::State& state) {
  os::Kernel k;
  os::world::standard_unix(k);
  os::world::put_file(k, "/data/f", std::string(1024, 'x'), os::kRootUid, 0,
                      0644);
  os::Pid pid = k.make_process(os::kRootUid, 0, "/");
  for (auto _ : state) {
    auto fd = k.open(kS, pid, "/data/f", os::OpenFlag::rd);
    auto data = k.read(kS, pid, fd.value());
    benchmark::DoNotOptimize(data);
    (void)k.close(pid, fd.value());
  }
}
BENCHMARK(BM_OpenReadClose);

void BM_SyscallNoHooks(benchmark::State& state) {
  os::Kernel k;
  os::world::put_file(k, "/f", "x");
  os::Pid pid = k.make_process(os::kRootUid, 0, "/");
  for (auto _ : state) {
    auto r = k.stat(kS, pid, "/f");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SyscallNoHooks);

void BM_SyscallWithHookChain(benchmark::State& state) {
  os::Kernel k;
  os::world::put_file(k, "/f", "x");
  os::Pid pid = k.make_process(os::kRootUid, 0, "/");
  struct Nop : os::Interposer {};
  for (int i = 0; i < state.range(0); ++i)
    k.add_interposer(std::make_shared<Nop>());
  for (auto _ : state) {
    auto r = k.stat(kS, pid, "/f");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SyscallWithHookChain)->Arg(1)->Arg(4)->Arg(16);

void BM_WorldBuildLpr(benchmark::State& state) {
  auto scenario = apps::lpr_scenario();
  for (auto _ : state) {
    auto w = scenario.build();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldBuildLpr);

void BM_WorldBuildTurnin(benchmark::State& state) {
  auto scenario = apps::turnin_scenario();
  for (auto _ : state) {
    auto w = scenario.build();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldBuildTurnin);

void BM_WorldCloneLpr(benchmark::State& state) {
  // The number the snapshot layer lives on: clone() vs BM_WorldBuildLpr.
  auto snap = core::WorldSnapshot::freeze(apps::lpr_scenario().build());
  for (auto _ : state) {
    auto w = snap->instantiate();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldCloneLpr);

void BM_WorldCloneTurnin(benchmark::State& state) {
  auto snap = core::WorldSnapshot::freeze(apps::turnin_scenario().build());
  for (auto _ : state) {
    auto w = snap->instantiate();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldCloneTurnin);

void BM_WorldCloneThenPerturb(benchmark::State& state) {
  // Clone plus a representative perturbation (unshares the touched node):
  // the realistic per-run cost of the cached path.
  auto snap = core::WorldSnapshot::freeze(apps::lpr_scenario().build());
  for (auto _ : state) {
    auto w = snap->instantiate();
    auto r = w->kernel.vfs().resolve("/etc/passwd", "/", os::kRootUid, 0);
    w->kernel.vfs().mutate(r.value()).mode = 0666;
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldCloneThenPerturb);

void BM_SingleInjectionRun(benchmark::State& state) {
  // One complete procedure step 4-8 cycle: fresh world, armed injector,
  // oracle, target execution.
  auto scenario = apps::lpr_scenario();
  core::FaultRef fault;
  fault.kind = core::FaultKind::direct;
  fault.direct = core::FaultCatalog::standard().find_direct("symbolic-link");
  for (auto _ : state) {
    auto w = scenario.build();
    auto injector = std::make_shared<core::Injector>(
        *w, os::Site{"lpr.c", 42, apps::kLprCreateTag}, fault,
        scenario.hints);
    auto oracle = std::make_shared<core::SecurityOracle>(scenario.policy);
    w->kernel.add_interposer(injector);
    w->kernel.add_interposer(oracle);
    int rc = scenario.run(*w);
    benchmark::DoNotOptimize(rc);
  }
}
BENCHMARK(BM_SingleInjectionRun);

void BM_FullTurninCampaign(benchmark::State& state) {
  // All 41 injections + trace run: the complete Section 4.1 experiment.
  for (auto _ : state) {
    core::Campaign c(apps::turnin_scenario());
    auto r = c.execute();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullTurninCampaign)->Unit(benchmark::kMillisecond);

void BM_ExecutorDrainTurnin(benchmark::State& state) {
  // Steps 4-8 only (plan prepared once): the parallel engine's hot loop.
  auto scenario = apps::turnin_scenario();
  auto plan = core::Planner(scenario).plan();
  core::Executor executor(scenario);
  core::ExecutorOptions opts;
  opts.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = executor.execute(plan, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.items.size()));
}
BENCHMARK(BM_ExecutorDrainTurnin)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- serial vs parallel, cached vs uncached: the tracked perf numbers -------

double sweep_seconds(const core::MultiCampaign& suite, int jobs,
                     bool use_world_cache, int* out_runs) {
  core::SweepOptions opts;
  opts.jobs = jobs;
  opts.campaign.use_world_cache = use_world_cache;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto r = suite.run(opts);
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r);
    *out_runs = r.total_injections();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Executor-drain rate for one scenario (plan prepared once): isolates
/// the per-run world cost, which is what the snapshot layer amortizes.
double drain_rps(const core::Scenario& scenario, bool use_world_cache,
                 bool pool_worlds = true) {
  core::CampaignOptions popts;
  popts.use_world_cache = use_world_cache;
  auto plan = core::Planner(scenario).plan(popts);
  core::Executor executor(scenario);
  core::ExecutorOptions opts;
  opts.use_world_cache = use_world_cache;
  opts.pool_worlds = pool_worlds;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto r = executor.execute(plan, opts);
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r);
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return static_cast<double>(plan.items.size()) / best;
}

/// The sharded dimension: the whole suite drained as `shard_count`
/// sequential shard pipelines. Each simulated shard process pays what a
/// real one pays — plan parsed from JSON, prototype re-frozen (a full
/// scenario.build()), its item subset drained, report serialized — and
/// the merge coordinator pays its own plan parse, report parses, and
/// merge. Serial, so the delta against the cached serial sweep is the
/// full distribution tax of an N-process campaign on one machine.
double sharded_sweep_seconds(int shard_count, int* out_runs,
                             std::size_t* out_wire_bytes) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto scenarios = apps::all_scenarios();
    int runs = 0;
    std::size_t wire_bytes = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (auto& scenario : scenarios) {
      core::CampaignOptions popts;
      popts.use_world_cache = false;  // the plan file carries no snapshot
      std::string plan_json = core::Planner(scenario).plan(popts).to_json();
      core::Executor executor(scenario);
      std::vector<std::string> shard_jsons;
      for (int k = 0; k < shard_count; ++k) {
        core::InjectionPlan plan = core::plan_from_json(plan_json);
        core::refreeze_snapshot(plan, scenario);
        shard_jsons.push_back(
            core::run_shard(executor, plan, static_cast<std::size_t>(k),
                            static_cast<std::size_t>(shard_count))
                .to_json());
        wire_bytes += shard_jsons.back().size();
      }
      core::InjectionPlan merge_plan = core::plan_from_json(plan_json);
      std::vector<core::ShardReport> shards;
      for (const auto& json : shard_jsons)
        shards.push_back(core::shard_report_from_json(json));
      auto merged = core::merge_shard_reports(merge_plan, shards);
      runs += merged.n();
      benchmark::DoNotOptimize(merged);
    }
    auto t1 = std::chrono::steady_clock::now();
    *out_runs = runs;
    *out_wire_bytes = wire_bytes;
    best = std::min(best,
                    std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Pure codec throughput, no execution: every scenario's full report
/// encoded to the binary frame and decoded back. The rate is outcomes
/// per second through one encode+decode round trip.
double codec_encode_decode_rps() {
  std::vector<core::ShardReport> reports;
  std::size_t outcomes = 0;
  for (auto& scenario : apps::all_scenarios()) {
    core::CampaignOptions popts;
    popts.use_world_cache = false;
    core::InjectionPlan plan = core::Planner(scenario).plan(popts);
    core::refreeze_snapshot(plan, scenario);
    core::Executor executor(scenario);
    reports.push_back(
        core::run_lease(executor, plan, 0, plan.items.size()));
    outcomes += plan.items.size();
  }
  constexpr int kIters = 50;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      for (const core::ShardReport& r : reports) {
        std::string frame = core::shard_report_to_binary(r);
        core::ShardReport back = core::shard_report_from_binary(frame);
        benchmark::DoNotOptimize(back);
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(t1 - t0).count());
  }
  return static_cast<double>(outcomes) * kIters / best;
}

/// printf into a std::string.
[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list again;
  va_copy(again, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

/// The top-level members of a JSON object, each as (key, value text
/// exactly as written), in document order. Validates with util/json
/// first, so the scan below only has to skip well-formed values.
std::vector<std::pair<std::string, std::string>> raw_members(
    std::string_view text) {
  JsonValue doc = json_parse(text);
  const JsonValue::Members& members = doc.members();  // throws if no object
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  auto skip_string = [&] {  // at the opening quote
    for (++i; text[i] != '"'; ++i)
      if (text[i] == '\\') ++i;
    ++i;
  };
  auto skip_value = [&] {
    int depth = 0;
    do {
      if (text[i] == '"') {
        skip_string();
        continue;
      }
      if (text[i] == '{' || text[i] == '[') ++depth;
      if (text[i] == '}' || text[i] == ']') --depth;
      ++i;
    } while (i < text.size() &&
             (depth > 0 || std::string_view(",}] \t\r\n").find(text[i]) ==
                               std::string_view::npos));
  };
  std::vector<std::pair<std::string, std::string>> out;
  skip_ws();
  ++i;  // '{'
  for (const auto& [key, value] : members) {
    skip_ws();
    skip_string();  // the key, already decoded by json_parse
    skip_ws();
    ++i;  // ':'
    skip_ws();
    std::size_t begin = i;
    skip_value();
    out.emplace_back(key, std::string(text.substr(begin, i - begin)));
    skip_ws();
    ++i;  // ',' or '}'
  }
  return out;
}

/// Write the object `produced` to `path`, keeping every member of the
/// file already there that `produced` does not name — the hand-recorded
/// e2e_* A/B records above all — in its order and byte for byte after the
/// produced members. Refuses to touch a file that is not a JSON object.
bool merge_into_json_file(const char* path, const std::string& produced) {
  auto members = raw_members(produced);
  std::vector<std::string> produced_keys;
  for (const auto& m : members) produced_keys.push_back(m.first);
  if (std::FILE* in = std::fopen(path, "rb")) {
    std::string old;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, in)) > 0;)
      old.append(buf, n);
    std::fclose(in);
    try {
      for (auto& m : raw_members(old))
        if (std::find(produced_keys.begin(), produced_keys.end(), m.first) ==
            produced_keys.end())
          members.push_back(std::move(m));
    } catch (const JsonError& e) {
      std::fprintf(stderr, "perf_injection: %s is not a JSON object (%s); "
                   "left unchanged\n", path, e.what());
      return false;
    }
  }
  std::string out = "{\n";
  for (std::size_t k = 0; k < members.size(); ++k) {
    out += "  \"" + members[k].first + "\": " + members[k].second;
    out += k + 1 < members.size() ? ",\n" : "\n";
  }
  out += "}\n";
  std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  bool ok = f && std::fwrite(out.data(), 1, out.size(), f) == out.size();
  ok = f && std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path) != 0) {
    std::fprintf(stderr, "perf_injection: cannot write %s\n", path);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool write_sweep_json(const char* path) {
  core::MultiCampaign suite;
  for (auto& s : apps::all_scenarios()) suite.add(std::move(s));

  constexpr int kJobs = 4;
  int runs = 0;
  // "serial"/"parallel" keep their historical meaning — the uncached
  // rebuild-per-run engine — so the runs/sec trajectory stays comparable
  // across PRs; the cached_* fields are the world-cache dimension.
  double serial_s = sweep_seconds(suite, 1, false, &runs);
  double parallel_s = sweep_seconds(suite, kJobs, false, &runs);
  double cached_serial_s = sweep_seconds(suite, 1, true, &runs);
  double cached_parallel_s = sweep_seconds(suite, kJobs, true, &runs);
  double serial_rps = runs / serial_s;
  double parallel_rps = runs / parallel_s;
  double cached_serial_rps = runs / cached_serial_s;
  double cached_parallel_rps = runs / cached_parallel_s;

  // The build-heaviest scenario in the suite (the NT registry world:
  // dozens of keys, programs, and profile files per build) — where the
  // clone-vs-build gap is widest. Measured serially so the number means
  // the same thing on any runner.
  core::Scenario heavy = apps::nt_module_scenarios().front();
  double heavy_uncached_rps = drain_rps(heavy, false);
  double heavy_cached_rps = drain_rps(heavy, true);
  // Same cached drain with the per-worker TargetWorld arena disabled —
  // the pre-pool engine, so the pair isolates the allocation-reuse win.
  double heavy_pool_off_rps = drain_rps(heavy, true, false);

  // The distribution tax: same suite, drained as 3 serial shard
  // pipelines with every byte passing through the wire format.
  constexpr int kShards = 3;
  int sharded_runs = 0;
  std::size_t shard_wire_bytes = 0;
  double sharded_s =
      sharded_sweep_seconds(kShards, &sharded_runs, &shard_wire_bytes);
  double sharded_rps = sharded_runs / sharded_s;
  double shard_overhead_pct =
      (cached_serial_s > 0 ? sharded_s / cached_serial_s - 1.0 : 0.0) * 100.0;

  double codec_rps = codec_encode_decode_rps();

  // The declarative layer at scale: every packaged family expanded
  // (spec compiled per member, cached worlds) and drained serially, plus
  // the adequacy of what the generated suite actually fired — the
  // fraction of the 20 EAI cause/attribute classes with >= 1 violation.
  core::MultiCampaign family_suite;
  for (const auto& fam : apps::scenario_families())
    for (auto& s : apps::family_scenarios(fam)) family_suite.add(std::move(s));
  std::size_t family_count = family_suite.size();
  core::SweepOptions family_opts;
  family_opts.campaign.use_world_cache = true;
  double family_best = 1e300;
  int family_runs = 0;
  vulndb::VulnCoverage family_cov;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    core::SweepResult r = family_suite.run(family_opts);
    auto t1 = std::chrono::steady_clock::now();
    family_runs = r.total_injections();
    family_cov = vulndb::vulnerability_coverage(r.results);
    family_best =
        std::min(family_best, std::chrono::duration<double>(t1 - t0).count());
  }
  double family_rps = family_runs / family_best;
  double vuln_coverage_pct = 100.0 * family_cov.fraction();

  // Search adequacy on one family (fam-relay): the coverage-guided
  // scheduler gets a quarter of the exhaustive run count and must still
  // fire >= 90% of the EAI classes the exhaustive drain fires. One
  // scorer is shared across the members (the CLI's --family path), so
  // later members spend their slices on what the family has not shown.
  const core::ScenarioFamily* relay = apps::find_family("fam-relay");
  std::vector<core::Scenario> relay_members = apps::family_scenarios(*relay);
  std::size_t exhaustive_items = 0;
  std::vector<core::CampaignResult> exhaustive_results;
  for (const auto& member : relay_members) {
    core::CampaignOptions popts;
    popts.use_world_cache = true;
    core::InjectionPlan plan = core::Planner(member).plan(popts);
    exhaustive_items += plan.items.size();
    core::Executor executor(member);
    exhaustive_results.push_back(executor.execute(plan, {}));
  }
  vulndb::VulnCoverage exhaustive_cov =
      vulndb::vulnerability_coverage(exhaustive_results);
  std::size_t search_budget = exhaustive_items / 4;
  core::NoveltyScorer search_scorer;
  std::size_t member_budget = search_budget / relay_members.size();
  std::size_t budget_rem = search_budget % relay_members.size();
  for (std::size_t i = 0; i < relay_members.size(); ++i) {
    core::CampaignOptions popts;
    popts.use_world_cache = true;
    core::InjectionPlan plan = core::Planner(relay_members[i]).plan(popts);
    core::SearchOptions sopts;
    sopts.seed = 7;
    sopts.budget = member_budget + (i == 0 ? budget_rem : 0);
    sopts.batch = 16;
    sopts.classify = [](core::FaultKind kind, const std::string& name) {
      return vulndb::coverage_class(kind, name);
    };
    core::SearchWorkSource source(std::move(plan), sopts, &search_scorer);
    core::Executor executor(relay_members[i]);
    auto rr = core::run_search(executor, source);
    benchmark::DoNotOptimize(rr);
  }
  std::size_t refired = 0;
  for (const std::string& c : exhaustive_cov.fired)
    if (search_scorer.fired_classes().count(c)) ++refired;
  double search_budget_pct =
      exhaustive_items == 0
          ? 0.0
          : 100.0 * static_cast<double>(search_budget) / exhaustive_items;
  double search_coverage_ratio =
      exhaustive_cov.fired.empty()
          ? 1.0
          : static_cast<double>(refired) / exhaustive_cov.fired.size();

  // On a machine with fewer cores than kJobs the parallel sweep is pure
  // thread overhead; flag the artifact so a sub-kJobs speedup reads as a
  // hardware limit, not an engine regression.
  unsigned hw = std::thread::hardware_concurrency();
  bool core_starved = hw < static_cast<unsigned>(kJobs);

  std::string produced = format(
               "{\n"
               "  \"scenarios\": %zu,\n"
               "  \"injection_runs\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"core_starved\": %s,\n"
               "  \"jobs\": %d,\n"
               "  \"serial_seconds\": %.6f,\n"
               "  \"parallel_seconds\": %.6f,\n"
               "  \"serial_runs_per_sec\": %.1f,\n"
               "  \"parallel_runs_per_sec\": %.1f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"cached_serial_runs_per_sec\": %.1f,\n"
               "  \"cached_parallel_runs_per_sec\": %.1f,\n"
               "  \"cache_speedup_serial\": %.2f,\n"
               "  \"cache_speedup_parallel\": %.2f,\n"
               "  \"build_heavy_scenario\": \"%s\",\n"
               "  \"build_heavy_uncached_runs_per_sec\": %.1f,\n"
               "  \"build_heavy_cached_runs_per_sec\": %.1f,\n"
               "  \"build_heavy_cache_speedup\": %.2f,\n"
               "  \"build_heavy_pool_off_runs_per_sec\": %.1f,\n"
               "  \"build_heavy_pool_speedup\": %.2f,\n"
               "  \"shards\": %d,\n"
               "  \"sharded_serial_runs_per_sec\": %.1f,\n"
               "  \"shard_wire_overhead_pct\": %.1f,\n"
               "  \"shard_wire_bytes\": %zu,\n"
               "  \"codec_encode_decode_runs_per_sec\": %.1f,\n"
               "  \"family_generated_count\": %zu,\n"
               "  \"family_generated_serial_runs_per_sec\": %.1f,\n"
               "  \"vuln_coverage_pct\": %.1f,\n"
               "  \"search_family\": \"%s\",\n"
               "  \"search_exhaustive_items\": %zu,\n"
               "  \"search_budget\": %zu,\n"
               "  \"search_budget_pct\": %.1f,\n"
               "  \"search_coverage_ratio\": %.3f\n"
               "}\n",
               suite.size(), runs, hw, core_starved ? "true" : "false",
               kJobs, serial_s, parallel_s, serial_rps, parallel_rps,
               parallel_rps / serial_rps, cached_serial_rps,
               cached_parallel_rps, cached_serial_rps / serial_rps,
               cached_parallel_rps / parallel_rps, heavy.name.c_str(),
               heavy_uncached_rps, heavy_cached_rps,
               heavy_cached_rps / heavy_uncached_rps, heavy_pool_off_rps,
               heavy_cached_rps / heavy_pool_off_rps, kShards, sharded_rps,
               shard_overhead_pct, shard_wire_bytes, codec_rps, family_count,
               family_rps,
               vuln_coverage_pct, relay->name.c_str(), exhaustive_items,
               search_budget, search_budget_pct, search_coverage_ratio);
  if (!merge_into_json_file(path, produced)) return false;
  std::printf(
      "\nsweep: %d injection runs across %zu scenarios\n"
      "  serial            : %8.1f runs/sec\n"
      "  jobs=%d            : %8.1f runs/sec  (%.2fx)\n"
      "  cached serial     : %8.1f runs/sec  (%.2fx vs serial)\n"
      "  cached jobs=%d     : %8.1f runs/sec  (%.2fx vs jobs=%d)\n"
      "  build-heavy %-6s: %8.1f -> %8.1f runs/sec  (%.2fx cached)\n"
      "  world pool off    : %8.1f runs/sec  (pool is %.2fx on the cached "
      "drain)\n"
      "  sharded %dx serial : %8.1f runs/sec  (wire+merge overhead "
      "%+.1f%% vs cached serial; %zu report bytes)\n"
      "  binary codec      : %8.1f outcomes/sec through encode+decode\n"
      "  family generated  : %8.1f runs/sec over %zu spec-compiled "
      "scenarios (%d runs; %.1f%% of the 20 EAI classes fired)\n"
      "  search %-10s : %zu of %zu exhaustive runs (%.1f%% budget) "
      "re-fired %.0f%% of the exhaustive EAI classes\n",
      runs, suite.size(), serial_rps, kJobs, parallel_rps,
      parallel_rps / serial_rps, cached_serial_rps,
      cached_serial_rps / serial_rps, kJobs, cached_parallel_rps,
      cached_parallel_rps / parallel_rps, kJobs, heavy.name.c_str(),
      heavy_uncached_rps, heavy_cached_rps,
      heavy_cached_rps / heavy_uncached_rps, heavy_pool_off_rps,
      heavy_cached_rps / heavy_pool_off_rps, kShards, sharded_rps,
      shard_overhead_pct, shard_wire_bytes, codec_rps, family_rps,
      family_count, family_runs, vuln_coverage_pct, relay->name.c_str(),
      search_budget, exhaustive_items, search_budget_pct,
      100.0 * search_coverage_ratio);
  if (core_starved)
    std::printf(
        "  !! core-starved (%u hardware thread%s < %d jobs): the parallel "
        "speedup is not meaningful here; judge regressions on the serial "
        "and cached-serial rates only\n",
        hw, hw == 1 ? "" : "s", kJobs);
  std::printf("  -> %s\n", path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // The sweep is expensive (6 full suite runs), so it runs on a plain
  // invocation — the tracked-artifact path — or when asked for with
  // --sweep-json; a filtered/listing micro-bench run skips it.
  bool sweep = argc == 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--sweep-json") {
      sweep = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (sweep && !write_sweep_json("BENCH_perf_injection.json")) return 1;
  return 0;
}

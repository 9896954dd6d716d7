// The traced half of the end-to-end benchmark (README.md): repeats one
// workload's epa_cli request in-process, through the layers' public entry
// points and in the order the CLI calls them, and reports per-layer
// metrics from spans recorded around those calls.
//
//   perfbench_traced classes
//       EAI class of every catalog fault, as JSON ("<kind>:<fault>" ->
//       class); run.py scores coverage_ratio from CLI output with it.
//   perfbench_traced run --workload W --seed N --seconds S --epa-cli PATH
//                        --work-dir DIR --reference FILE --spans FILE
//       Alternates an untraced and a traced copy of the request until S
//       seconds have passed, each in a fresh subdirectory of DIR (left
//       for the caller to delete). Every copy's rendered output is compared
//       byte for byte with FILE (the CLI's output for the same request).
//       The first 20 traced requests' spans go to the spans file; the
//       last stdout line is a JSON object with the request count,
//       mismatches, and the metrics.
//
// Sub-layer probes (clone, invariant check, redzone sweep, exploit
// analysis on every workload; binary plan/report decode, refreeze and
// merge on orchestrate-suite) run after the request's own span has closed, so no
// time is counted twice.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/catalog.hpp"
#include "core/executor.hpp"
#include "core/orchestrator.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "core/search.hpp"
#include "core/transport.hpp"
#include "core/wire.hpp"
#include "tracer.hpp"
#include "vulndb/coverage.hpp"

namespace {

using namespace ep;
using perfbench::Scope;
using perfbench::Tracer;

// The workloads' CLI settings (BENCHMARK.json): `--jobs 4` for sweep and
// search, `--workers 3` for orchestrate, `--budget 150` and the default
// `--batch 16` for search.
constexpr int kJobs = 4;
constexpr int kWorkers = 3;
constexpr std::size_t kSearchBudget = 150;
constexpr std::size_t kSearchBatch = 16;
constexpr const char* kSearchFamily = "fam-relay";
// Clone probes per snapshot-carrying plan and request.
constexpr int kCloneProbes = 4;
// Traced requests whose spans go to the span file.
constexpr std::uint64_t kSpanFileRequests = 20;

struct Ctx {
  std::string epa_cli;
  std::string work_dir;  // this request's scratch (orchestrate's arenas)
  std::uint64_t seed = 1;
};

/// One request's output plus what the probes need afterwards.
struct Request {
  std::string out;  // the bytes epa_cli prints on stdout
  std::vector<core::Scenario> scenarios;
  std::vector<core::InjectionPlan> plans;
  core::SweepResult sweep;
  struct Fleet {  // orchestrate-suite: one per scenario
    std::size_t scenario = 0;
    std::vector<core::ShardReport> reports;
    std::vector<std::string> labels;
  };
  std::vector<Fleet> fleets;
};

/// Extra samples that are not spans: first lease_done latency per fleet
/// and search wave widths (traced requests only).
struct Samples {
  std::vector<double> first_done_ms;
  std::vector<double> wave_widths;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The bytes `epa_cli sweep --json` (and `orchestrate --all --json`,
/// `search --family --json`) prints: print_sweep's JSON branch.
std::string render_sweep(const core::SweepResult& sweep, bool with_coverage,
                         Tracer& t, std::uint64_t parent) {
  Scope s(t, "report.render", parent);
  std::string out = "{\n\"scenarios\": [\n";
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    out += core::render_json(sweep.results[i]);
    out += i + 1 < sweep.results.size() ? ",\n" : "\n";
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "],\n\"totals\": {\"points\": %d, \"injections\": %d, "
                "\"violations\": %d, \"exploitable\": %d, "
                "\"mean_vulnerability_score\": %.6f",
                sweep.total_points(), sweep.total_injections(),
                sweep.total_violations(), sweep.total_exploitable(),
                sweep.mean_vulnerability_score());
  out += buf;
  if (with_coverage) {
    vulndb::VulnCoverage cov;
    {
      Scope c(t, "vulndb.coverage", s.id());
      cov = vulndb::vulnerability_coverage(sweep.results);
    }
    std::snprintf(buf, sizeof buf,
                  ", \"vuln_classes_fired\": %zu, "
                  "\"vuln_classes_total\": %d, \"vuln_coverage_pct\": %.1f",
                  cov.fired.size(), cov.total(), 100.0 * cov.fraction());
    out += buf;
  }
  out += "}\n}\n";
  t.count("report.bytes", static_cast<double>(out.size()));
  return out;
}

std::vector<core::Scenario> compile_scenarios(const char* family, Tracer& t,
                                              std::uint64_t parent) {
  Scope s(t, "apps.scenarios", parent);
  if (!family) return apps::all_scenarios();
  const core::ScenarioFamily* fam = apps::find_family(family);
  if (!fam) throw std::runtime_error(std::string("no family ") + family);
  return apps::family_scenarios(*fam);
}

void count_outcomes(const core::SweepResult& sweep, Tracer& t) {
  for (const auto& r : sweep.results)
    for (const auto& o : r.injections) {
      t.count("executor.items");
      if (o.fired) t.count("executor.fired");
      if (o.violated) t.count("executor.violated");
    }
}

// ---- sweep-packaged: epa_cli sweep --json --jobs 4 ------------------------

Request sweep_packaged(Tracer& t, const Ctx&) {
  Request rq;
  Scope req(t, "request");
  rq.scenarios = compile_scenarios(nullptr, t, req.id());
  (void)core::FaultCatalog::standard();
  const std::size_t n = rq.scenarios.size();
  const core::CampaignOptions copts;  // the sweep's defaults
  rq.plans.resize(n);
  {
    Scope all(t, "planner.plan_all", req.id());
    core::parallel_for(n, kJobs, [&](std::size_t i) {
      Scope p(t, "planner.plan", all.id());
      rq.plans[i] = core::Planner(rq.scenarios[i]).plan(copts);
    });
  }
  std::vector<core::Executor> executors;
  executors.reserve(n);
  rq.sweep.results.resize(n);
  std::vector<std::pair<std::size_t, std::size_t>> queue;
  for (std::size_t si = 0; si < n; ++si) {
    executors.emplace_back(rq.scenarios[si]);
    rq.sweep.results[si] = core::result_skeleton(rq.plans[si]);
    for (std::size_t ii = 0; ii < rq.plans[si].items.size(); ++ii)
      queue.emplace_back(si, ii);
  }
  core::ExecutorOptions eopts;
  eopts.use_world_cache = copts.use_world_cache;
  eopts.use_redzone = copts.use_redzone;
  {
    Scope drain(t, "executor.drain", req.id());
    core::parallel_for(queue.size(), kJobs, [&](std::size_t q) {
      Scope item(t, "executor.run_item", drain.id());
      const auto [si, ii] = queue[q];
      rq.sweep.results[si].injections[ii] = executors[si].run_item(
          rq.plans[si], rq.plans[si].items[ii], eopts);
    });
  }
  rq.out = render_sweep(rq.sweep, false, t, req.id());
  return rq;
}

/// The sub-layer probes on one drained plan: kCloneProbes clones of its
/// prototype, each checked for VFS invariants and swept for redzones,
/// then exploit analysis of every violated outcome, judged the way
/// run_item judges it (against the prototype when there is one).
void probe_plan(const core::Scenario& scenario, const core::InjectionPlan& plan,
                const core::CampaignResult& result, Tracer& t,
                std::uint64_t parent) {
  for (int k = 0; plan.snapshot && k < kCloneProbes; ++k) {
    std::unique_ptr<core::TargetWorld> w;
    {
      Scope s(t, "snapshot.instantiate", parent);
      w = plan.snapshot->instantiate();
    }
    std::string broken;
    {
      Scope s(t, "os.check_invariants", parent);
      broken = w->kernel.vfs().check_invariants();
    }
    if (!broken.empty())
      throw std::logic_error("clone of " + plan.scenario_name +
                             " breaks a VFS invariant: " + broken);
    Scope s(t, "os.validate_redzones", parent);
    w->validate_redzones();
  }
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    if (!result.injections.at(i).violated) continue;
    const core::WorkItem& item = plan.items[i];
    Scope s(t, "exploit.analyze", parent);
    if (plan.snapshot)
      (void)core::analyze_exploitability(plan.snapshot->prototype(),
                                         plan.point_of(item), item.fault);
    else
      (void)core::analyze_exploitability(scenario, plan.point_of(item),
                                         item.fault);
  }
}

void probe_sweep(const Request& rq, Tracer& t) {
  Scope root(t, "probe");
  for (std::size_t si = 0; si < rq.plans.size(); ++si) {
    t.count("planner.items", static_cast<double>(rq.plans[si].items.size()));
    probe_plan(rq.scenarios[si], rq.plans[si], rq.sweep.results[si], t,
               root.id());
  }
  count_outcomes(rq.sweep, t);
}

// ---- orchestrate-suite: epa_cli orchestrate --all --workers 3 -----------
//      --data-plane shm --json

/// epa_cli's `--lease auto` grain (examples/epa_cli.cpp auto_lease_items).
std::size_t auto_lease_items(std::size_t plan_items, int workers,
                             double plan_ms) {
  const std::size_t grain = std::max<std::size_t>(
      1, plan_items / (static_cast<std::size_t>(workers) * 4));
  const double per_item_ms = plan_ms / 2.0;
  if (per_item_ms <= 0.0) return grain;
  const double by_cost = 250.0 / per_item_ms;
  if (by_cost >= static_cast<double>(grain)) return grain;
  return std::max<std::size_t>(1, static_cast<std::size_t>(by_cost));
}

Request orchestrate_suite(Tracer& t, const Ctx& ctx, Samples& samples) {
  Request rq;
  Scope req(t, "request");
  rq.scenarios = compile_scenarios(nullptr, t, req.id());
  for (std::size_t si = 0; si < rq.scenarios.size(); ++si) {
    const core::Scenario& scenario = rq.scenarios[si];
    core::CampaignOptions popts;
    popts.use_world_cache = false;  // the arena carries no snapshot
    const auto plan_t0 = perfbench::Clock::now();
    {
      Scope p(t, "planner.plan", req.id());
      rq.plans.push_back(core::Planner(scenario).plan(popts));
    }
    const core::InjectionPlan& plan = rq.plans.back();
    const double plan_ms = std::chrono::duration<double, std::milli>(
                               perfbench::Clock::now() - plan_t0)
                               .count();
    core::OrchestratorOptions oopts;
    oopts.workers = kWorkers;
    oopts.lease_items = auto_lease_items(plan.items.size(), kWorkers, plan_ms);

    core::LocalProcessConfig cfg;
    cfg.epa_cli = ctx.epa_cli;
    cfg.out_dir = ctx.work_dir;
    cfg.file_prefix = scenario.name;
    // The shm data plane: the binary plan is frozen into an mmap'd arena
    // sized for the lease partition orchestrate() will schedule, and
    // workers write binary reports into its segments.
    std::optional<core::ShmLocalTransport> inner;
    {
      Scope w(t, "wire.plan_encode", req.id());
      inner.emplace(cfg, plan, core::lease_partition(plan.items.size(), oopts));
    }
    core::OrchestratorStats stats;
    Scope fleet(t, "orchestrator.orchestrate", req.id());
    perfbench::TracingTransport transport(*inner, t, fleet.id());
    rq.sweep.results.push_back(
        core::orchestrate(plan, transport, oopts, &stats));
    if (!t.enabled()) continue;
    t.count("orchestrator.fleets");
    t.count("orchestrator.leases_granted",
            static_cast<double>(stats.leases_granted));
    t.count("orchestrator.leases_split",
            static_cast<double>(stats.leases_split));
    const std::size_t fleet_size =
        std::min<std::size_t>(kWorkers, stats.leases_total);
    t.count("orchestrator.respawns",
            static_cast<double>(stats.workers_spawned > fleet_size
                                    ? stats.workers_spawned - fleet_size
                                    : 0));
    if (auto ms = transport.first_done_ms())
      samples.first_done_ms.push_back(*ms);
    rq.fleets.push_back({si, transport.reports(), transport.labels()});
  }
  {
    // The CLI's stderr adequacy summary.
    Scope c(t, "vulndb.coverage", req.id());
    (void)vulndb::vulnerability_coverage(rq.sweep.results);
  }
  rq.out = render_sweep(rq.sweep, false, t, req.id());
  return rq;
}

void probe_orchestrate(const Request& rq, Tracer& t) {
  Scope root(t, "probe");
  for (const auto& plan : rq.plans)
    t.count("planner.items", static_cast<double>(plan.items.size()));
  for (const Request::Fleet& f : rq.fleets) {
    const core::InjectionPlan& plan = rq.plans[f.scenario];
    // What each worker pays once: decode the arena's binary plan and
    // re-freeze the prototype. Probed once per fleet.
    const std::string plan_bin = core::plan_to_binary(plan);
    t.count("wire.bytes", static_cast<double>(plan_bin.size()));
    core::InjectionPlan decoded;
    {
      Scope s(t, "wire.plan_decode", root.id());
      decoded = core::plan_from_binary(plan_bin);
    }
    {
      Scope s(t, "wire.refreeze", root.id());
      core::refreeze_snapshot(decoded, rq.scenarios[f.scenario]);
    }
    // The workers clone and judge against this refrozen prototype.
    probe_plan(rq.scenarios[f.scenario], decoded,
               rq.sweep.results[f.scenario], t, root.id());
    // What the coordinator paid inside wait_any (one decode per
    // lease_done) and inside orchestrate() (the merge).
    for (const core::ShardReport& r : f.reports) {
      const std::string bin = core::shard_report_to_binary(r);
      t.count("wire.bytes", static_cast<double>(bin.size()));
      Scope s(t, "wire.report_decode", root.id());
      (void)core::shard_report_from_binary(bin);
    }
    core::CampaignResult merged;
    {
      Scope s(t, "wire.merge", root.id());
      merged = core::merge_shard_reports(plan, f.reports, f.labels);
    }
    if (core::render_json(merged) !=
        core::render_json(rq.sweep.results[f.scenario]))
      throw std::logic_error("merge probe of " +
                             rq.scenarios[f.scenario].name +
                             " disagrees with orchestrate()");
  }
}

// ---- search-relay: epa_cli search --family fam-relay --budget 150 --------
//      --jobs 4 --json --seed N

Request search_relay(Tracer& t, const Ctx& ctx, Samples& samples) {
  Request rq;
  Scope req(t, "request");
  rq.scenarios = compile_scenarios(kSearchFamily, t, req.id());
  core::NoveltyScorer scorer;  // shared across family members
  const std::size_t members = rq.scenarios.size();
  for (std::size_t m = 0; m < members; ++m) {
    const core::Scenario& scenario = rq.scenarios[m];
    core::CampaignOptions popts;
    core::InjectionPlan base;
    {
      Scope p(t, "planner.plan", req.id());
      base = core::Planner(scenario).plan(popts);
    }
    t.count("planner.items", static_cast<double>(base.items.size()));
    core::SearchOptions sopts;
    sopts.seed = ctx.seed;
    sopts.budget = kSearchBudget / members + (m == 0 ? kSearchBudget % members : 0);
    sopts.batch = kSearchBatch;
    sopts.classify = [](core::FaultKind kind, const std::string& name) {
      return vulndb::coverage_class(kind, name);
    };
    core::SearchWorkSource source(std::move(base), sopts, &scorer);
    core::Executor executor(scenario);
    core::ExecutorOptions eopts;
    eopts.jobs = kJobs;

    // run_search's loop, one span per call.
    std::vector<core::ShardReport> reports;
    std::vector<std::string> labels;
    for (;;) {
      std::pair<std::size_t, std::size_t> wave;
      {
        Scope s(t, "search.next_wave", req.id());
        wave = source.next_wave();
      }
      if (wave.first == wave.second) break;
      core::ShardReport r;
      {
        Scope s(t, "executor.run_lease", req.id());
        r = core::run_lease(executor, source.plan(), wave.first, wave.second,
                            eopts);
      }
      {
        Scope s(t, "search.absorb", req.id());
        source.absorb(r);
      }
      reports.push_back(std::move(r));
      labels.push_back("wave " + std::to_string(reports.size()));
      if (t.enabled()) {
        const double w = static_cast<double>(wave.second - wave.first);
        const double slots = std::ceil(w / kJobs) * kJobs;
        samples.wave_widths.push_back(w);
        t.count("search.waves");
        t.count("search.slots", slots);
        t.count("search.idle_slots", slots - w);
      }
    }
    if (t.enabled()) rq.plans.push_back(source.plan());  // for the probes
    if (reports.empty()) {
      rq.sweep.results.push_back(core::result_skeleton(source.plan()));
      continue;
    }
    for (core::ShardReport& r : reports) r.plan_items = source.plan().items.size();
    Scope s(t, "wire.merge", req.id());
    rq.sweep.results.push_back(
        core::merge_shard_reports(source.plan(), reports, labels));
  }
  {
    Scope c(t, "vulndb.coverage", req.id());
    (void)vulndb::vulnerability_coverage(rq.sweep.results);
  }
  rq.out = render_sweep(rq.sweep, true, t, req.id());
  return rq;
}

void probe_search(const Request& rq, Tracer& t) {
  {
    Scope root(t, "probe");
    for (std::size_t m = 0; m < rq.plans.size(); ++m)
      probe_plan(rq.scenarios[m], rq.plans[m], rq.sweep.results[m], t,
                 root.id());
  }
  // Outcomes that fired a class no earlier outcome fired, in the order
  // the search ran them (member order, then stable id = wave order).
  std::set<std::string> fired;
  for (const auto& r : rq.sweep.results)
    for (const auto& o : r.injections) {
      if (!o.violated) continue;
      std::string label = vulndb::coverage_class(o.kind, o.fault_name);
      if (!label.empty() && fired.insert(label).second)
        t.count("search.novel");
    }
  count_outcomes(rq.sweep, t);
}

// ---- metrics ---------------------------------------------------------------

double median(std::vector<double> v) { return perfbench::percentile(v, 50); }

class Metrics {
 public:
  Metrics(const Tracer& t, std::size_t requests) : t_(t) {
    for (std::uint64_t r = 1; r <= requests; ++r) requests_.push_back(r);
    for (const auto& s : t.spans()) {
      by_name_[s.name].push_back(s.us());
      sum_[s.name][s.request] += s.us();
      n_[s.name][s.request] += 1;
    }
  }

  /// Median over requests of the per-request total time in `name`.
  [[nodiscard]] double total_us(const std::string& name) const {
    return per_request([&](std::uint64_t r) { return get(sum_, name, r); });
  }
  /// Median over requests of the number of `name` spans.
  [[nodiscard]] double calls(const std::string& name) const {
    return per_request([&](std::uint64_t r) { return get(n_, name, r); });
  }
  /// Percentile of every `name` span's duration, pooled.
  [[nodiscard]] double pct_us(const std::string& name, double p) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? 0.0 : perfbench::percentile(it->second, p);
  }
  /// Median over requests of counter `name`.
  [[nodiscard]] double count(const std::string& name) const {
    return per_request([&](std::uint64_t r) { return counter(name, r); });
  }
  /// Median over requests of num/den (0 where den is 0).
  [[nodiscard]] double ratio(const std::function<double(std::uint64_t)>& num,
                             const std::function<double(std::uint64_t)>& den)
      const {
    return per_request([&](std::uint64_t r) {
      const double d = den(r);
      return d == 0 ? 0.0 : num(r) / d;
    });
  }
  [[nodiscard]] double counter(const std::string& name, std::uint64_t r) const {
    auto it = t_.counts().find(r);
    if (it == t_.counts().end()) return 0.0;
    auto c = it->second.find(name);
    return c == it->second.end() ? 0.0 : c->second;
  }
  [[nodiscard]] double span_sum(const std::string& name, std::uint64_t r) const {
    return get(sum_, name, r);
  }

 private:
  using PerRequest = std::map<std::string, std::map<std::uint64_t, double>>;
  static double get(const PerRequest& m, const std::string& name,
                    std::uint64_t r) {
    auto it = m.find(name);
    if (it == m.end()) return 0.0;
    auto v = it->second.find(r);
    return v == it->second.end() ? 0.0 : v->second;
  }
  [[nodiscard]] double per_request(
      const std::function<double(std::uint64_t)>& f) const {
    std::vector<double> v;
    for (std::uint64_t r : requests_) v.push_back(f(r));
    return median(v);
  }

  const Tracer& t_;
  std::vector<std::uint64_t> requests_;
  std::map<std::string, std::vector<double>> by_name_;
  PerRequest sum_;
  PerRequest n_;
};

std::vector<std::pair<std::string, double>> layer_metrics(
    const Tracer& t, std::size_t requests, const Samples& samples) {
  const Metrics m(t, requests);
  const char* kEvents[] = {"lease_done", "lease_yielded", "heartbeat",
                           "preempted",  "died",          "exited"};
  auto c = [&](const char* name) {
    return [&m, name](std::uint64_t r) { return m.counter(name, r); };
  };
  std::vector<std::pair<std::string, double>> out = {
      {"apps.compile_us", m.total_us("apps.scenarios")},
      {"planner.plan_count", m.calls("planner.plan")},
      {"planner.plan_us", m.total_us("planner.plan")},
      {"planner.plan_p50_us", m.pct_us("planner.plan", 50)},
      {"planner.items", m.count("planner.items")},
      {"snapshot.clone_p50_us", m.pct_us("snapshot.instantiate", 50)},
      {"snapshot.clone_count", m.calls("snapshot.instantiate")},
      {"executor.item_count", m.count("executor.items")},
      {"executor.item_busy_us", m.total_us("executor.run_item")},
      {"executor.item_p50_us", m.pct_us("executor.run_item", 50)},
      {"executor.item_p99_us", m.pct_us("executor.run_item", 99)},
      {"executor.drain_wall_us",
       m.total_us("executor.drain") + m.total_us("executor.run_lease")},
      {"executor.drain_efficiency",
       m.ratio([&](std::uint64_t r) { return m.span_sum("executor.run_item", r); },
               [&](std::uint64_t r) {
                 return m.span_sum("executor.drain", r) * kJobs;
               })},
      {"executor.fired_ratio",
       m.ratio(c("executor.fired"), c("executor.items"))},
      {"executor.violated_ratio",
       m.ratio(c("executor.violated"), c("executor.items"))},
      {"os.invariant_check_p50_us", m.pct_us("os.check_invariants", 50)},
      {"os.redzone_sweep_p50_us", m.pct_us("os.validate_redzones", 50)},
      {"exploit.analyze_count", m.calls("exploit.analyze")},
      {"exploit.analyze_us", m.total_us("exploit.analyze")},
      {"report.render_us", m.total_us("report.render")},
      {"report.bytes", m.count("report.bytes")},
      {"vulndb.coverage_us", m.total_us("vulndb.coverage")},
      {"wire.plan_encode_us", m.total_us("wire.plan_encode")},
      {"wire.plan_decode_us", m.total_us("wire.plan_decode")},
      {"wire.report_decode_us", m.total_us("wire.report_decode")},
      {"wire.merge_us", m.total_us("wire.merge")},
      {"wire.refreeze_us", m.total_us("wire.refreeze")},
      {"wire.bytes", m.count("wire.bytes")},
      {"transport.spawn_count", m.count("transport.spawn_count")},
      {"transport.spawn_us", m.total_us("transport.spawn")},
      {"transport.submit_count", m.count("transport.submit_count")},
      {"transport.wait_us", m.total_us("transport.wait_any")},
  };
  for (const char* e : kEvents)
    out.emplace_back(std::string("transport.events.") + e,
                     m.count(std::string("transport.events.") + e));
  const std::vector<std::pair<std::string, double>> rest = {
      {"orchestrator.fleets", m.count("orchestrator.fleets")},
      {"orchestrator.first_done_ms", median(samples.first_done_ms)},
      {"orchestrator.leases_granted", m.count("orchestrator.leases_granted")},
      {"orchestrator.leases_split", m.count("orchestrator.leases_split")},
      {"orchestrator.respawns", m.count("orchestrator.respawns")},
      {"search.waves", m.count("search.waves")},
      {"search.next_wave_us", m.total_us("search.next_wave")},
      {"search.absorb_us", m.total_us("search.absorb")},
      {"search.wave_width_p50", median(samples.wave_widths)},
      {"search.barrier_idle_ratio",
       m.ratio(c("search.idle_slots"), c("search.slots"))},
      {"search.novel_yield", m.ratio(c("search.novel"), c("executor.items"))},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

/// The spans of the first kSpanFileRequests traced requests (a 30 s
/// sweep-packaged run records ~1M spans; the metrics use all of them).
void write_spans(const Tracer& t, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  for (const auto& s : t.spans()) {
    if (s.request > kSpanFileRequests) continue;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                  "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"thread\": %u}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name.c_str(),
                  s.start_ns / 1e3, s.end_ns / 1e3, s.thread);
    out << buf;
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return PERFBENCH_SANITIZE;
#endif
}

int print_classes() {
  const core::FaultCatalog& catalog = core::FaultCatalog::standard();
  std::string out = "{";
  auto add = [&](const char* kind, core::FaultKind k, const std::string& name) {
    if (out.size() > 1) out += ", ";
    out += "\"" + std::string(kind) + ":" + name + "\": \"" +
           vulndb::coverage_class(k, name) + "\"";
  };
  for (const auto& f : catalog.indirect())
    add("indirect", core::FaultKind::indirect, f.name);
  for (const auto& f : catalog.direct())
    add("direct", core::FaultKind::direct, f.name);
  std::printf("%s}\n", out.c_str());
  return 0;
}

struct RunArgs {
  std::string workload, epa_cli, work_dir, reference, spans;
  std::uint64_t seed = 1;
  double seconds = 5;
};

int run(const RunArgs& a) {
  const std::string reference = read_file(a.reference);
  Ctx ctx{a.epa_cli, a.work_dir, a.seed};
  Samples samples;
  using Fn = std::function<Request(Tracer&)>;
  Fn request;
  std::function<void(const Request&, Tracer&)> probe;
  if (a.workload == "sweep-packaged") {
    request = [&](Tracer& t) { return sweep_packaged(t, ctx); };
    probe = probe_sweep;
  } else if (a.workload == "orchestrate-suite") {
    request = [&](Tracer& t) { return orchestrate_suite(t, ctx, samples); };
    probe = probe_orchestrate;
  } else if (a.workload == "search-relay") {
    request = [&](Tracer& t) { return search_relay(t, ctx, samples); };
    probe = probe_search;
  } else {
    std::fprintf(stderr, "perfbench_traced: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }

  Tracer off(false), on(true);
  std::size_t mismatches = 0;
  std::vector<double> untraced_ms, traced_ms;
  // One fresh scratch directory per request copy, deleted by the caller
  // after the run: deleting while requests run slows them (run.py).
  std::size_t copies = 0;
  auto once = [&](Tracer& t, std::vector<double>* wall) {
    ctx.work_dir = a.work_dir + "/" + std::to_string(copies++);
    std::filesystem::create_directories(ctx.work_dir);
    const auto t0 = perfbench::Clock::now();
    Request rq = request(t);
    const double ms = std::chrono::duration<double, std::milli>(
                          perfbench::Clock::now() - t0)
                          .count();
    if (wall) wall->push_back(ms);
    if (rq.out != reference) ++mismatches;
    if (t.enabled()) probe(rq, t);
  };

  once(off, nullptr);  // warm-up: catalog, page cache, allocator
  const auto deadline = perfbench::Clock::now() +
                        std::chrono::duration<double>(a.seconds);
  std::size_t requests = 0;
  while (requests < 3 || perfbench::Clock::now() < deadline) {
    ++requests;
    once(off, &untraced_ms);
    on.set_request(requests);
    once(on, &traced_ms);
  }
  write_spans(on, a.spans);

  const double untraced = median(untraced_ms);
  const double traced = median(traced_ms);
  std::string metrics;
  auto add = [&](const std::string& name, double v) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", metrics.empty() ? "" : ", ",
                  name.c_str(), v);
    metrics += buf;
  };
  for (const auto& [name, v] : layer_metrics(on, requests, samples))
    add(name, v);
  add("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
  std::printf(
      "{\"workload\": \"%s\", \"requests\": %zu, \"copies\": %zu, "
      "\"mismatches\": %zu, \"untraced_p50_ms\": %.17g, "
      "\"traced_p50_ms\": %.17g, \"build_type\": \"%s\", "
      "\"sanitizer\": \"%s\", \"metrics\": {%s}}\n",
      a.workload.c_str(), requests, 2 * requests, mismatches, untraced, traced,
      PERFBENCH_BUILD_TYPE, sanitizer(), metrics.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_traced classes\n"
               "       perfbench_traced run --workload W --seed N "
               "--seconds S --epa-cli PATH --work-dir DIR --reference FILE "
               "--spans FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "classes") return print_classes();
    if (cmd != "run") return usage();
    RunArgs a;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i], v = argv[i + 1];
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--epa-cli") a.epa_cli = v;
      else if (flag == "--work-dir") a.work_dir = v;
      else if (flag == "--reference") a.reference = v;
      else if (flag == "--spans") a.spans = v;
      else return usage();
    }
    if (a.workload.empty() || a.epa_cli.empty() || a.work_dir.empty() ||
        a.reference.empty() || a.spans.empty())
      return usage();
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_traced: %s\n", e.what());
    return 1;
  }
}

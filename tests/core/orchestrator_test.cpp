// The dynamic-lease orchestrator (core/orchestrator.hpp) over an
// in-process fake Transport: scheduling, preemption re-lease, replacement
// spawning, and failure handling are all deterministic here — the real
// process transport is exercised by the CLI pipeline tests and the CI
// orchestrate smoke.
#include "core/orchestrator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

/// An in-process worker fleet: submit() queues work, wait_any() "runs"
/// the oldest queued submission through run_lease (every report passes
/// through its JSON encoding, like the wire would) — unless the worker's
/// scripted behavior says it dies first.
class FakeTransport : public Transport {
 public:
  /// Per-spawn-order behavior. preempt_after = -1: faithful worker.
  /// preempt_after = k >= 0: serves k leases, then dies preempted when
  /// handed the next. fail_status != 0: hard-fails (that exit status)
  /// when handed its first lease.
  struct Behavior {
    long long preempt_after = -1;
    int fail_status = 0;
  };

  FakeTransport(const Scenario& scenario, const InjectionPlan& plan)
      : plan_(plan), executor_(scenario) {}

  std::vector<Behavior> script;  // indexed by spawn order; default beyond
  int jobs = 1;

  std::optional<std::size_t> spawn() override {
    workers_.push_back({behavior_at(workers_.size()), 0, true});
    return workers_.size() - 1;
  }

  void submit(std::size_t worker, const Lease& lease) override {
    queue_.push_back({worker, lease, false});
  }

  void shutdown(std::size_t worker) override {
    queue_.push_back({worker, {}, true});
  }

  void kill(std::size_t worker) override {
    workers_[worker].alive = false;
    for (auto it = queue_.begin(); it != queue_.end();)
      it = it->worker == worker ? queue_.erase(it) : it + 1;
  }

  std::optional<WorkerEvent> wait_any(long timeout_ms) override {
    (void)timeout_ms;  // everything here is instantaneous
    if (queue_.empty())
      throw std::logic_error("wait_any with nothing outstanding");
    Pending p = queue_.front();
    queue_.pop_front();
    Worker& w = workers_[p.worker];
    WorkerEvent ev;
    ev.worker = p.worker;
    if (p.is_shutdown) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::exited;
      ev.status = 0;
      return ev;
    }
    if (w.behavior.fail_status != 0) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::died;
      ev.status = w.behavior.fail_status;
      return ev;
    }
    if (w.behavior.preempt_after >= 0 &&
        w.served >= w.behavior.preempt_after) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::preempted;
      ev.status = 4;
      return ev;
    }
    ExecutorOptions opts;
    opts.jobs = jobs;
    ShardReport report =
        run_lease(executor_, plan_, p.lease.begin, p.lease.end, opts);
    ev.kind = WorkerEvent::Kind::lease_done;
    ev.lease = p.lease;
    ev.report = shard_report_from_json(report.to_json());
    ev.label = "lease" + std::to_string(p.lease.seq) + ".json";
    ++w.served;
    return ev;
  }

 private:
  struct Worker {
    Behavior behavior;
    long long served = 0;
    bool alive = true;
  };
  struct Pending {
    std::size_t worker = 0;
    Lease lease;
    bool is_shutdown = false;
  };

  Behavior behavior_at(std::size_t i) const {
    return i < script.size() ? script[i] : Behavior{};
  }

  const InjectionPlan& plan_;
  Executor executor_;
  std::deque<Pending> queue_;
  std::vector<Worker> workers_;
};

InjectionPlan planned_toy() {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.use_world_cache = true;
  return Planner(s).plan(opts);
}

TEST(Orchestrator, MatchesSingleProcessForAnyWorkerCountAndLeaseSize) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);
  std::string single_json = render_json(single);

  for (int workers : {1, 2, 3, 7}) {
    for (std::size_t lease_items : {std::size_t{0}, std::size_t{1},
                                    std::size_t{5}, plan.items.size()}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " lease=" + std::to_string(lease_items));
      FakeTransport transport(s, plan);
      OrchestratorOptions opts;
      opts.workers = workers;
      opts.lease_items = lease_items;
      OrchestratorStats stats;
      CampaignResult merged = orchestrate(plan, transport, opts, &stats);
      expect_identical(single, merged);
      EXPECT_EQ(single_json, render_json(merged));
      EXPECT_GE(stats.leases_total, 1u);
      EXPECT_EQ(stats.leases_granted, stats.leases_total);
      EXPECT_EQ(stats.workers_preempted, 0u);
    }
  }
}

TEST(Orchestrator, ParallelWorkersDrainConcurrentLeases) {
  // The worker side drains each lease through the shared executor pool —
  // the TSan matrix runs this to watch the lease drain under threads.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);
  FakeTransport transport(s, plan);
  transport.jobs = 2;
  OrchestratorOptions opts;
  opts.workers = 3;
  expect_identical(single, orchestrate(plan, transport, opts));
}

TEST(Orchestrator, PreemptedWorkerIsReLeasedAndReplaced) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  FakeTransport transport(s, plan);
  // First worker dies after serving one lease; its in-flight lease must
  // be re-leased and a replacement spawned, with no effect on output.
  transport.script = {{1, 0}};
  OrchestratorOptions opts;
  opts.workers = 2;
  opts.lease_items = 1;
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, transport, opts, &stats);
  expect_identical(single, merged);
  EXPECT_EQ(render_json(single), render_json(merged));
  EXPECT_EQ(stats.workers_preempted, 1u);
  EXPECT_EQ(stats.leases_released, 1u);
  EXPECT_EQ(stats.workers_spawned, 3u);  // 2 initial + 1 replacement
  EXPECT_EQ(stats.leases_granted, stats.leases_total + 1);
}

TEST(Orchestrator, SurvivesEveryWorkerBeingPreemptedRepeatedly) {
  // The CI forced-preemption shape: every worker (replacements included)
  // dies after a single lease. Progress is one lease per spawn, so the
  // campaign still finishes and still matches the single process.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  FakeTransport transport(s, plan);
  transport.script.assign(64, {1, 0});
  OrchestratorOptions opts;
  opts.workers = 3;
  opts.lease_items = 2;
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, transport, opts, &stats);
  expect_identical(single, merged);
  EXPECT_GT(stats.workers_preempted, 0u);
}

TEST(Orchestrator, EmptyPlanYieldsTheEmptyResultWithoutWorkers) {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.only_sites = {"--none--"};  // discovery only: zero work items
  InjectionPlan plan = Planner(s).plan(opts);
  ASSERT_TRUE(plan.items.empty());
  FakeTransport transport(s, plan);
  OrchestratorStats stats;
  CampaignResult r = orchestrate(plan, transport, {}, &stats);
  EXPECT_EQ(r.n(), 0);
  EXPECT_EQ(stats.workers_spawned, 0u);
}

TEST(OrchestratorErrors, HardWorkerFailureAbortsInsteadOfReLeasing) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  FakeTransport transport(s, plan);
  transport.script = {{-1, 9}};  // first worker hard-fails (exit 9)
  OrchestratorOptions opts;
  opts.workers = 2;
  try {
    (void)orchestrate(plan, transport, opts);
    FAIL() << "expected OrchestratorError";
  } catch (const OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "exit status 9"));
    EXPECT_TRUE(contains(e.what(), "failed"));
  }
}

TEST(OrchestratorErrors, RespawnBudgetBoundsAPreemptionStorm) {
  // Workers that die before serving anything make no progress; the
  // budget must stop the spawn loop with a diagnostic, not spin.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  FakeTransport transport(s, plan);
  transport.script.assign(64, {0, 0});  // everyone dies on the first lease
  OrchestratorOptions opts;
  opts.workers = 2;
  opts.max_respawns = 3;
  try {
    (void)orchestrate(plan, transport, opts);
    FAIL() << "expected OrchestratorError";
  } catch (const OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "respawn budget"));
  }
}

TEST(OrchestratorErrors, RejectsAWorkerCountBelowOne) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  FakeTransport transport(s, plan);
  OrchestratorOptions opts;
  opts.workers = 0;
  EXPECT_THROW((void)orchestrate(plan, transport, opts), OrchestratorError);
}

TEST(Orchestrator, LeasePartitionIsContiguousAscending) {
  OrchestratorOptions oopts;
  oopts.workers = 3;
  std::vector<Lease> leases = lease_partition(26, oopts);
  ASSERT_FALSE(leases.empty());
  std::size_t expect_begin = 0;
  for (std::size_t i = 0; i < leases.size(); ++i) {
    EXPECT_EQ(leases[i].seq, i);
    EXPECT_EQ(leases[i].begin, expect_begin);
    EXPECT_GT(leases[i].end, leases[i].begin);
    expect_begin = leases[i].end;
  }
  EXPECT_EQ(expect_begin, 26u);
  // auto grain: roughly four leases per worker.
  EXPECT_EQ(leases.size(), 13u);  // 26 / max(1, 26/(3*4)=2) = 13

  oopts.lease_items = 100;  // one big lease swallows the plan
  EXPECT_EQ(lease_partition(26, oopts).size(), 1u);
  EXPECT_TRUE(lease_partition(0, oopts).empty());
  oopts.workers = 0;
  EXPECT_THROW((void)lease_partition(26, oopts), OrchestratorError);
}

TEST(Orchestrator, EveryScenarioMatchesSingleProcessIncludingPreemption) {
  // The ISSUE's acceptance bar: for every packaged scenario, the
  // orchestrated drain — leases through the wire, one worker preempted
  // mid-campaign and its lease re-granted — reproduces the
  // single-process run byte for byte at worker counts {2, 3, 7}.
  for (auto& scenario : apps::all_scenarios()) {
    SCOPED_TRACE(scenario.name);
    InjectionPlan plan = Planner(scenario).plan();
    Executor ex(scenario);
    CampaignResult single = ex.execute(plan);
    std::string single_json = render_json(single);
    for (int workers : {2, 3, 7}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      FakeTransport transport(scenario, plan);
      transport.script = {{1, 0}};  // first worker dies after one lease
      OrchestratorOptions opts;
      opts.workers = workers;
      opts.lease_items = 2;
      CampaignResult merged = orchestrate(plan, transport, opts);
      expect_identical(single, merged);
      EXPECT_EQ(single_json, render_json(merged));
    }
  }
}

// --- One fleet, many plans (Fleet) -----------------------------------------

/// A fake fleet whose workers each hold exactly one plan: spawn() starts
/// a worker holding the construction plan, load() replaces it, and a
/// lease runs against whatever the worker holds — so a lease reaching a
/// worker that holds another plan drains the wrong items. Every load and
/// submit is logged with the name of the plan the worker held for it.
class PlanHoldingTransport : public Transport {
 public:
  struct Call {
    std::size_t worker = 0;
    char op = 'S';  // 'L' load, 'S' submit
    std::string plan;
  };

  /// `scenarios` must outlive the transport; they resolve a held plan's
  /// scenario name to an executor.
  PlanHoldingTransport(const std::vector<Scenario>& scenarios,
                       const InjectionPlan& construction)
      : construction_(construction) {
    for (const Scenario& s : scenarios) executors_.emplace(s.name, s);
  }

  /// Spawn order -> the plan name whose first lease kills that worker
  /// (preempted, status 4); unset entries never die.
  std::map<std::size_t, std::string> die_on_plan;
  std::vector<Call> log;
  /// lease_depth(): how many leases one worker may hold at once.
  std::size_t depth = 1;
  /// The most leases any one worker held at once.
  std::size_t most_held = 0;

  std::size_t lease_depth() const override { return depth; }
  std::optional<std::size_t> spawn() override {
    workers_.push_back({construction_, true});
    return workers_.size() - 1;
  }
  // A load takes effect at once, so a load queued behind a lease would
  // run that lease against the wrong plan.
  void load(std::size_t worker, const InjectionPlan& plan) override {
    workers_[worker].held = plan;
    log.push_back({worker, 'L', plan.scenario_name});
  }
  void submit(std::size_t worker, const Lease& lease) override {
    log.push_back({worker, 'S', workers_[worker].held.scenario_name});
    queue_.push_back({worker, lease, false});
    std::size_t held = 0;
    for (const Pending& p : queue_)
      if (p.worker == worker && !p.is_shutdown) ++held;
    most_held = std::max(most_held, held);
  }
  void shutdown(std::size_t worker) override {
    queue_.push_back({worker, {}, true});
  }
  void kill(std::size_t worker) override { workers_[worker].alive = false; }

  std::optional<WorkerEvent> wait_any(long) override {
    if (queue_.empty())
      throw std::logic_error("wait_any with nothing outstanding");
    Pending p = queue_.front();
    queue_.pop_front();
    Worker& w = workers_[p.worker];
    WorkerEvent ev;
    ev.worker = p.worker;
    if (p.is_shutdown) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::exited;
      return ev;
    }
    auto dies = die_on_plan.find(p.worker);
    if (dies != die_on_plan.end() && dies->second == w.held.scenario_name) {
      // A dead worker's queued commands die with it.
      w.alive = false;
      for (auto it = queue_.begin(); it != queue_.end();)
        it = it->worker == p.worker ? queue_.erase(it) : it + 1;
      ev.kind = WorkerEvent::Kind::preempted;
      ev.status = 4;
      return ev;
    }
    ShardReport report =
        run_lease(executors_.at(w.held.scenario_name), w.held,
                  p.lease.begin, p.lease.end);
    ev.kind = WorkerEvent::Kind::lease_done;
    ev.lease = p.lease;
    ev.report = shard_report_from_json(report.to_json());
    return ev;
  }

 private:
  struct Worker {
    InjectionPlan held;
    bool alive = true;
  };
  struct Pending {
    std::size_t worker = 0;
    Lease lease;
    bool is_shutdown = false;
  };

  const InjectionPlan& construction_;
  std::map<std::string, Executor> executors_;
  std::vector<Worker> workers_;
  std::deque<Pending> queue_;
};

/// Two plans of different scenarios, and what one process makes of each.
struct TwoPlans {
  std::vector<Scenario> scenarios = {toy_scenario("toy"),
                                     toy_scenario("toy-hardened", true)};
  std::vector<InjectionPlan> plans;
  std::vector<std::string> single;

  TwoPlans() {
    CampaignOptions opts;
    opts.use_world_cache = true;
    for (const Scenario& s : scenarios) {
      plans.push_back(Planner(s).plan(opts));
      single.push_back(render_json(Executor(s).execute(plans.back())));
    }
  }
};

TEST(Fleet, EachWorkerIsLoadedOncePerPlanSwitch) {
  TwoPlans two;
  PlanHoldingTransport t(two.scenarios, two.plans[0]);
  OrchestratorOptions opts;
  opts.workers = 2;
  Fleet fleet(t, opts);

  OrchestratorStats first, second;
  PlanWorkSource a(two.plans[0]), b(two.plans[1]);
  EXPECT_EQ(render_json(fleet.drain(a, 1, &first)), two.single[0]);
  const std::size_t first_calls = t.log.size();
  EXPECT_EQ(render_json(fleet.drain(b, 1, &second)), two.single[1]);
  fleet.close();

  // Drain 1 runs on the construction plan: no loads. Drain 2 loads each
  // worker exactly once, and every lease reaches a worker holding the
  // drain's own plan.
  std::map<std::size_t, int> loads;
  for (std::size_t i = 0; i < t.log.size(); ++i) {
    const auto& c = t.log[i];
    const std::string& expected = i < first_calls ? "toy" : "toy-hardened";
    EXPECT_EQ(c.plan, expected) << "call " << i << " op " << c.op;
    if (c.op == 'L') ++loads[c.worker];
    EXPECT_FALSE(c.op == 'L' && i < first_calls);
  }
  EXPECT_EQ(loads, (std::map<std::size_t, int>{{0, 1}, {1, 1}}));

  // Stats describe one drain each.
  EXPECT_EQ(first.leases_total, two.plans[0].items.size());
  EXPECT_EQ(second.leases_total, two.plans[1].items.size());
  EXPECT_EQ(first.leases_granted, first.leases_total);
  EXPECT_EQ(second.leases_granted, second.leases_total);
  EXPECT_EQ(first.workers_spawned, 2u);
  EXPECT_EQ(second.workers_spawned, 0u);
}

TEST(Fleet, AWorkerSpawnedMidSuiteIsLoadedBeforeItsFirstGrant) {
  TwoPlans two;
  PlanHoldingTransport t(two.scenarios, two.plans[0]);
  t.die_on_plan = {{1, "toy-hardened"}};  // worker 1 dies in drain 2
  OrchestratorOptions opts;
  opts.workers = 2;
  Fleet fleet(t, opts);

  OrchestratorStats first, second;
  PlanWorkSource a(two.plans[0]), b(two.plans[1]);
  EXPECT_EQ(render_json(fleet.drain(a, 1, &first)), two.single[0]);
  EXPECT_EQ(render_json(fleet.drain(b, 1, &second)), two.single[1]);
  fleet.close();

  // The replacement starts on the construction plan (drain 1's) and must
  // switch before any lease of drain 2 reaches it.
  std::vector<PlanHoldingTransport::Call> replacement;
  for (const auto& c : t.log)
    if (c.worker == 2) replacement.push_back(c);
  ASSERT_GE(replacement.size(), 2u);
  EXPECT_EQ(replacement.front().op, 'L');
  for (const auto& c : replacement) EXPECT_EQ(c.plan, "toy-hardened");

  EXPECT_EQ(first.workers_preempted, 0u);
  EXPECT_EQ(second.workers_spawned, 1u);
  EXPECT_EQ(second.workers_preempted, 1u);
  EXPECT_EQ(second.leases_released, 1u);
  EXPECT_EQ(second.leases_granted, second.leases_total + 1);
}

TEST(Fleet, ASuiteDrainsAsOneQueueLaneByLane) {
  TwoPlans two;
  PlanHoldingTransport t(two.scenarios, two.plans[0]);
  OrchestratorOptions opts;
  opts.workers = 2;
  Fleet fleet(t, opts);

  OrchestratorStats first, second;
  PlanWorkSource a(two.plans[0]), b(two.plans[1]);
  std::vector<CampaignResult> results =
      fleet.drain({{&a, 1, &first}, {&b, 1, &second}});
  fleet.close();

  // Each lane merges to what one process makes of its plan — every
  // lease ran against the plan of its own lane.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(render_json(results[0]), two.single[0]);
  EXPECT_EQ(render_json(results[1]), two.single[1]);

  // Lane 2's leases queue behind lane 1's: a worker switches plans once,
  // and never back.
  std::map<std::size_t, int> loads;
  std::map<std::size_t, std::string> last;
  for (const auto& c : t.log) {
    if (c.op == 'L') ++loads[c.worker];
    if (last[c.worker] == "toy-hardened") {
      EXPECT_EQ(c.plan, "toy-hardened");
    }
    last[c.worker] = c.plan;
  }
  EXPECT_EQ(loads, (std::map<std::size_t, int>{{0, 1}, {1, 1}}));

  // Stats are per lane; the fleet's spawns count toward the first.
  EXPECT_EQ(first.leases_total, two.plans[0].items.size());
  EXPECT_EQ(second.leases_total, two.plans[1].items.size());
  EXPECT_EQ(first.leases_granted, first.leases_total);
  EXPECT_EQ(second.leases_granted, second.leases_total);
  EXPECT_EQ(first.workers_spawned, 2u);
  EXPECT_EQ(second.workers_spawned, 0u);
}

TEST(Fleet, QueuedLeasesFeedEachWorkerAndComeBackWhenItDies) {
  TwoPlans two;
  PlanHoldingTransport t(two.scenarios, two.plans[0]);
  t.depth = 2;
  t.die_on_plan = {{1, "toy-hardened"}};  // worker 1 dies in lane 2
  OrchestratorOptions opts;
  opts.workers = 2;
  Fleet fleet(t, opts);

  OrchestratorStats first, second;
  PlanWorkSource a(two.plans[0]), b(two.plans[1]);
  std::vector<CampaignResult> results =
      fleet.drain({{&a, 1, &first}, {&b, 1, &second}});
  fleet.close();

  EXPECT_EQ(render_json(results[0]), two.single[0]);
  EXPECT_EQ(render_json(results[1]), two.single[1]);
  // Workers held a second lease while draining one, never a third.
  EXPECT_EQ(t.most_held, 2u);
  // Every lease the dead worker held — in flight or queued — was
  // released and granted again.
  EXPECT_EQ(first.workers_preempted, 0u);
  EXPECT_EQ(second.workers_preempted, 1u);
  EXPECT_GE(second.leases_released, 1u);
  EXPECT_EQ(second.leases_granted,
            second.leases_total + second.leases_released);
  EXPECT_EQ(first.leases_granted + second.leases_granted,
            first.leases_total + second.leases_total +
                second.leases_released);
}

TEST(Fleet, AnEmptyLaneMergesWithoutLeasing) {
  TwoPlans two;
  CampaignOptions none;
  none.only_sites = {"--none--"};  // discovery only: zero work items
  InjectionPlan empty = Planner(two.scenarios[1]).plan(none);
  ASSERT_TRUE(empty.items.empty());
  PlanHoldingTransport t(two.scenarios, two.plans[0]);
  OrchestratorOptions opts;
  opts.workers = 2;
  Fleet fleet(t, opts);

  OrchestratorStats first, second;
  PlanWorkSource a(two.plans[0]), b(empty);
  std::vector<CampaignResult> results =
      fleet.drain({{&a, 1, &first}, {&b, 1, &second}});
  fleet.close();
  EXPECT_EQ(render_json(results[0]), two.single[0]);
  EXPECT_EQ(results[1].n(), 0);
  EXPECT_EQ(second.leases_total, 0u);
  for (const auto& c : t.log) EXPECT_EQ(c.plan, "toy");
}

}  // namespace
}  // namespace ep::core

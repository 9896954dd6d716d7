// The traced run's Transport decorator must be invisible to the
// orchestrator: orchestrate() over TracingTransport renders the same bytes
// as over the bare transport (pipe or shm plane) and as a single-process
// drain, while the decorator still sees every call.
#include "tracer.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "apps/scenarios.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/transport.hpp"

namespace perfbench {
namespace {

using namespace ep;

core::Scenario scenario_named(const std::string& name) {
  for (auto& s : apps::all_scenarios())
    if (s.name == name) return s;
  throw std::runtime_error("no scenario " + name);
}

class TracingTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() / "tracing_transport_test.d";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// orchestrate() `plan` over a fresh pipe-plane LocalProcessTransport
  /// (or, with `shm`, an ShmLocalTransport), optionally wrapped in a
  /// TracingTransport on `tracer`.
  std::string orchestrated(const core::InjectionPlan& plan, Tracer* tracer,
                           core::OrchestratorStats* stats,
                           const std::string& prefix, bool shm) {
    core::LocalProcessConfig cfg;
    cfg.epa_cli = PERFBENCH_EPA_CLI;
    cfg.out_dir = dir_.string();
    cfg.file_prefix = prefix;
    core::OrchestratorOptions opts;
    opts.workers = 3;
    opts.lease_items = 2;
    std::unique_ptr<core::Transport> inner;
    if (shm) {
      inner = std::make_unique<core::ShmLocalTransport>(
          cfg, plan, core::lease_partition(plan.items.size(), opts));
    } else {
      cfg.plan_path = (dir_ / (prefix + ".plan.json")).string();
      std::ofstream(cfg.plan_path) << plan.to_json();
      inner = std::make_unique<core::LocalProcessTransport>(cfg);
    }
    if (!tracer)
      return core::render_json(core::orchestrate(plan, *inner, opts, stats));
    TracingTransport traced(*inner, *tracer, 0);
    std::string out =
        core::render_json(core::orchestrate(plan, traced, opts, stats));
    if (tracer->enabled()) {
      EXPECT_EQ(traced.reports().size(), traced.labels().size());
      EXPECT_TRUE(traced.first_done_ms().has_value());
    }
    return out;
  }

  void expect_invisible(bool shm) {
    const core::Scenario scenario = scenario_named("turnin");
    core::CampaignOptions popts;
    popts.use_world_cache = false;  // as epa_cli orchestrate plans
    const core::InjectionPlan plan = core::Planner(scenario).plan(popts);
    ASSERT_GT(plan.items.size(), 6u);  // several leases per worker

    const std::string local =
        core::render_json(core::Executor(scenario).execute(plan));
    core::OrchestratorStats bare_stats;
    const std::string bare =
        orchestrated(plan, nullptr, &bare_stats, "bare", shm);

    Tracer on(true);
    on.set_request(1);
    core::OrchestratorStats traced_stats;
    const std::string traced =
        orchestrated(plan, &on, &traced_stats, "on", shm);

    Tracer off(false);
    const std::string untraced = orchestrated(plan, &off, nullptr, "off", shm);

    EXPECT_EQ(bare, local);
    EXPECT_EQ(traced, local);
    EXPECT_EQ(untraced, local);

    // The decorator saw exactly the calls the orchestrator made.
    const auto& counts = on.counts().at(1);
    EXPECT_EQ(counts.at("transport.spawn_count"),
              static_cast<double>(traced_stats.workers_spawned));
    EXPECT_EQ(counts.at("transport.submit_count"),
              static_cast<double>(traced_stats.leases_granted));
    EXPECT_EQ(counts.at("transport.events.lease_done"),
              static_cast<double>(traced_stats.leases_granted));
    EXPECT_EQ(counts.at("transport.events.exited"),
              static_cast<double>(traced_stats.workers_spawned));
    std::size_t waits = 0;
    for (const Span& s : on.spans()) {
      EXPECT_EQ(s.request, 1u);
      EXPECT_LE(s.start_ns, s.end_ns);
      if (s.name == "transport.wait_any") ++waits;
    }
    EXPECT_GE(waits, traced_stats.leases_granted);
    EXPECT_TRUE(off.spans().empty());
    EXPECT_TRUE(off.counts().empty());
  }

  std::filesystem::path dir_;
};

TEST_F(TracingTransportTest, PipePlaneOutputIsByteIdentical) {
  expect_invisible(false);
}

TEST_F(TracingTransportTest, ShmPlaneOutputIsByteIdentical) {
  expect_invisible(true);
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({7}, 99), 7.0);
  EXPECT_EQ(percentile({4, 1, 3, 2}, 50), 2.0);
  EXPECT_EQ(percentile({4, 1, 3, 2}, 75), 3.0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 90), 90.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
}

}  // namespace
}  // namespace perfbench

// TcpTransport (net/transport_tcp.hpp): socket plumbing, the accept + HELLO +
// PLAN handshake, plan switches, and BYE-based death classification, driven
// from a scripted in-test "worker" on the other end of a loopback socket.
// Everything is single-threaded: the client pre-writes whatever the transport
// will want next, so no call here ever blocks on the other side of the test.
// The session itself is tested over a socketpair in
// tests/core/worker_session_test.cpp; the real worker binary by the CLI tcp
// pipeline tests.
#include "net/transport_tcp.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/protocol.hpp"
#include "core/report.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::net {
namespace {

/// The coordinator under test plus one scripted loopback "worker". The
/// client connects (and usually says HELLO) before spawn() runs, so the
/// accept + handshake + plan shipment all complete without another
/// thread; socket buffers hold the small frames both directions.
struct ScriptedWorker {
  int fd = -1;
  core::FrameBuffer fb;

  explicit ScriptedWorker(int port) : fd(tcp_connect("127.0.0.1", port)) {}
  ~ScriptedWorker() {
    if (fd >= 0) ::close(fd);
  }

  void say(const std::string& line) { ASSERT_TRUE(core::send_frame(fd, line)); }
  std::string hear() {
    std::string payload;
    EXPECT_TRUE(core::recv_frame(fd, &fb, &payload, 2000));
    return payload;
  }
  /// The handshake's (or a plan switch's) two frames: `PLAN <items>`,
  /// then the binary plan, decoded and checked against the count.
  core::InjectionPlan hear_plan() {
    const std::string line = hear();
    core::ProtocolMsg msg;
    EXPECT_TRUE(core::parse_protocol_line(line, &msg)) << line;
    EXPECT_EQ(msg.type, core::ProtocolMsg::Type::plan) << line;
    core::InjectionPlan plan = core::plan_from_binary(hear());
    EXPECT_EQ(plan.items.size(), msg.end);
    return plan;
  }
  void hang_up() {
    ::close(fd);
    fd = -1;
  }
};

core::InjectionPlan planned_toy(core::Scenario* out_scenario) {
  *out_scenario = core::toy_scenario();
  core::CampaignOptions opts;
  opts.use_world_cache = true;
  return core::Planner(*out_scenario).plan(opts);
}

TcpTransportConfig loopback_config(int workers) {
  TcpTransportConfig cfg;
  cfg.listen_port = 0;
  cfg.workers = workers;
  cfg.accept_timeout_ms = 2000;
  cfg.handshake_timeout_ms = 2000;
  return cfg;
}

TEST(TcpTransport, HandshakePlanLeaseAndReportAllCrossTheWire) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ASSERT_GT(transport.port(), 0);

  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());

  // The plan arrives as PLAN <items> and one binary EPAB frame,
  // decodable to the same plan the coordinator holds.
  core::InjectionPlan shipped = worker.hear_plan();
  ASSERT_EQ(shipped.items.size(), plan.items.size());

  // LEASE goes out with `-` as the target: the report returns in-band.
  core::Lease lease{0, 0, 2};
  transport.submit(*w, lease);
  EXPECT_EQ(worker.hear(), "LEASE 0 2 -");

  // The scripted worker drains the lease for real and answers with the
  // DONE control frame plus the binary report frame.
  core::Executor ex(s);
  core::ShardReport report = core::run_lease(ex, plan, 0, 2, {});
  worker.say(core::format_done(0, 2));
  worker.say(core::shard_report_to_binary(report));
  std::optional<core::WorkerEvent> ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::lease_done);
  EXPECT_EQ(ev->worker, *w);
  EXPECT_EQ(ev->lease.seq, lease.seq);
  EXPECT_EQ(ev->report.to_json(), report.to_json());

  // PING is a heartbeat event; YIELD answers a STEAL with a split.
  worker.say(core::format_ping());
  ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::heartbeat);

  core::Lease second{1, 2, 6};
  transport.submit(*w, second);
  EXPECT_EQ(worker.hear(), "LEASE 2 6 -");
  transport.steal(*w);
  EXPECT_EQ(worker.hear(), "STEAL");
  worker.say(core::format_yield(4, 6));
  ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::lease_yielded);
  EXPECT_EQ(ev->yield_mid, 4u);
  EXPECT_EQ(ev->lease.end, 6u);  // the event names the original range

  // The worker now owes [2, 4); finish it so shutdown finds it idle.
  core::ShardReport head = core::run_lease(ex, plan, 2, 4, {});
  worker.say(core::format_done(2, 4));
  worker.say(core::shard_report_to_binary(head));
  ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::lease_done);

  // Clean exit: EXIT out, BYE 0 + close back, exited event.
  transport.shutdown(*w);
  EXPECT_EQ(worker.hear(), "EXIT");
  worker.say(core::format_bye(0));
  worker.hang_up();
  ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::exited);
  EXPECT_EQ(ev->status, 0);
}

TEST(TcpTransport, HandshakeVersionMismatchNamesBothVersions) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say("HELLO 1");
  try {
    (void)transport.spawn();
    FAIL() << "expected OrchestratorError";
  } catch (const core::OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "version 1"));
    EXPECT_TRUE(contains(
        e.what(),
        "version " + std::to_string(core::kWorkerProtocolVersion)));
  }
}

TEST(TcpTransport, OpeningWithAnythingButHelloIsRejected) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say("PING");
  try {
    (void)transport.spawn();
    FAIL() << "expected OrchestratorError";
  } catch (const core::OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "instead of HELLO"));
  }
}

TEST(TcpTransport, ConnectionDroppedWithoutByeIsPreemption) {
  // kill -9, a powered-off host, a split network: no BYE, just EOF. The
  // worker's lease must come back as preempted (status -1), the signal
  // the orchestrator re-leases on.
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  (void)worker.hear_plan();  // take the plan
  transport.submit(*w, {0, 0, 2});
  worker.hang_up();
  std::optional<core::WorkerEvent> ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::preempted);
  EXPECT_EQ(ev->status, -1);
}

TEST(TcpTransport, ByeWithFailureStatusIsDeathNotPreemption) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  (void)worker.hear_plan();
  worker.say(core::format_bye(9));
  worker.hang_up();
  std::optional<core::WorkerEvent> ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::died);
  EXPECT_EQ(ev->status, 9);
}

TEST(TcpTransport, KillClosesTheSocketSoTheWorkerSeesEof) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  (void)worker.hear_plan();
  transport.kill(*w);
  std::string payload;
  EXPECT_FALSE(core::recv_frame(worker.fd, &worker.fb, &payload, 2000));
}

TEST(TcpTransport, RespawnOnlyPollsAndAdoptsAPreStartedSpare) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);

  ScriptedWorker first(transport.port());
  first.say(core::format_hello(core::kWorkerProtocolVersion));
  ASSERT_TRUE(transport.spawn().has_value());
  (void)first.hear_plan();

  // Past the initial fleet: an empty accept queue is nullopt (after a
  // short poll), not a multi-second stall and not an error.
  EXPECT_FALSE(transport.spawn().has_value());

  // A spare that already dialed in is adopted instantly.
  ScriptedWorker spare(transport.port());
  spare.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  core::InjectionPlan shipped = spare.hear_plan();
  EXPECT_EQ(shipped.items.size(), plan.items.size());
}

TEST(TcpTransport, LoadSwitchesADialedInWorkerToTheNextPlan) {
  // The handshake's plan and a later plan switch are the same message on
  // the same socket.
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(worker.hear_plan().scenario_name, "toy");

  core::Scenario hardened = core::toy_scenario("toy-hardened", true);
  core::InjectionPlan next = core::Planner(hardened).plan({});
  transport.load(*w, next);
  core::InjectionPlan shipped = worker.hear_plan();
  EXPECT_EQ(shipped.scenario_name, "toy-hardened");
  EXPECT_EQ(core::plan_to_binary(shipped), core::plan_to_binary(next));
}

}  // namespace
}  // namespace ep::net

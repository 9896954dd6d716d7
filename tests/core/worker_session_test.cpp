// WorkerSession (core/transport.hpp): the coordinator's half of the
// worker protocol that every data plane shares — HELLO gate, PING,
// YIELD shrink, DONE validation, the report frame after DONE, BYE —
// driven over a socketpair by a scripted in-test "worker". Single-
// threaded: the worker side writes whole frames before the session
// reads, so no call blocks on the other side of the test.
#include "core/transport.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>

#include "core/campaign_fixtures.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

/// A session on one end of a socketpair (passed as both of its fds,
/// like a tcp socket) and the scripted worker on the other.
struct Wire {
  int worker_fd = -1;
  FrameBuffer worker_fb;
  std::optional<WorkerSession> session;

  Wire() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    session.emplace(0, sv[0], sv[0]);
    worker_fd = sv[1];
  }
  ~Wire() {
    if (worker_fd >= 0) ::close(worker_fd);
  }

  void say(const std::string& payload) {
    ASSERT_TRUE(send_frame(worker_fd, payload));
  }
  std::string hear() {
    std::string payload;
    EXPECT_TRUE(recv_frame(worker_fd, &worker_fb, &payload, 2000));
    return payload;
  }
  /// Read what the worker sent and return the next event, if any.
  std::optional<WorkerEvent> event() {
    session->pump();
    return session->next_event();
  }
  void hello() {
    say(format_hello(kWorkerProtocolVersion));
    std::optional<WorkerEvent> ev = event();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->kind, WorkerEvent::Kind::heartbeat);
  }
};

/// The OrchestratorError message `frame` draws from a session that has
/// completed HELLO (when `greet`) — "" if it draws none.
std::string rejection(const std::string& frame, bool greet = true,
                      const Lease* lease = nullptr) {
  Wire w;
  if (greet) w.hello();
  if (lease) w.session->grant(*lease);
  w.say(frame);
  try {
    (void)w.event();
  } catch (const OrchestratorError& e) {
    return e.what();
  }
  return "";
}

ShardReport toy_report(std::size_t begin, std::size_t end) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan({});
  return run_lease(Executor(s), plan, begin, end);
}

TEST(WorkerSession, LeaseDoneReportFrameAndByeRoundTrip) {
  Wire w;
  w.hello();

  const Lease lease{3, 0, 2};
  w.session->grant(lease);
  EXPECT_EQ(w.hear(), "LEASE 0 2 -");

  w.say(format_ping());
  std::optional<WorkerEvent> ev = w.event();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, WorkerEvent::Kind::heartbeat);

  // DONE alone is not an event: the report is the next frame.
  ShardReport report = toy_report(0, 2);
  w.say(format_done(0, 2));
  EXPECT_FALSE(w.event().has_value());
  w.say(shard_report_to_binary(report));
  ev = w.event();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, WorkerEvent::Kind::lease_done);
  EXPECT_EQ(ev->lease.seq, 3u);
  EXPECT_EQ(ev->report.to_json(), report.to_json());
  EXPECT_FALSE(ev->label.empty());

  // EXIT out; BYE back is recorded, not an event; the close is EOF.
  w.session->shutdown();
  EXPECT_EQ(w.hear(), "EXIT");
  w.say(format_bye(4));
  ::close(w.worker_fd);
  w.worker_fd = -1;
  EXPECT_FALSE(w.event().has_value());
  EXPECT_TRUE(w.session->said_bye());
  EXPECT_EQ(w.session->bye_status(), 4);
  w.session->pump();
  EXPECT_TRUE(w.session->saw_eof());
}

TEST(WorkerSession, YieldShrinksTheLeaseTheDoneMustMatch) {
  Wire w;
  w.hello();
  w.session->grant({1, 2, 6});
  w.say(format_yield(4, 6));
  std::optional<WorkerEvent> ev = w.event();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, WorkerEvent::Kind::lease_yielded);
  EXPECT_EQ(ev->yield_mid, 4u);
  EXPECT_EQ(ev->lease.end, 6u);  // the event names the original range

  // The worker now owes [2, 4): DONE 2 6 no longer matches.
  w.say(format_done(2, 6));
  EXPECT_THROW((void)w.event(), OrchestratorError);
}

TEST(WorkerSession, MissingHelloIsRejected) {
  std::string msg = rejection(format_ping(), /*greet=*/false);
  EXPECT_TRUE(contains(msg, "instead of HELLO")) << msg;
}

TEST(WorkerSession, HelloVersionMismatchNamesBothVersions) {
  std::string msg = rejection("HELLO 1", /*greet=*/false);
  EXPECT_TRUE(contains(msg, "version 1")) << msg;
  EXPECT_TRUE(contains(
      msg, "version " + std::to_string(kWorkerProtocolVersion)))
      << msg;
  EXPECT_TRUE(contains(msg, "upgrade so both ends match")) << msg;
}

TEST(WorkerSession, SecondHelloIsRejected) {
  std::string msg = rejection(format_hello(kWorkerProtocolVersion));
  EXPECT_TRUE(contains(msg, "unexpected protocol message")) << msg;
}

TEST(WorkerSession, UnsolicitedYieldIsRejected) {
  // No lease at all, then a split point outside the lease.
  EXPECT_TRUE(contains(rejection(format_yield(1, 4)), "unexpected yield"));
  const Lease lease{0, 2, 6};
  EXPECT_TRUE(contains(rejection(format_yield(2, 6), true, &lease),
                       "unexpected yield"));
  EXPECT_TRUE(contains(rejection(format_yield(4, 7), true, &lease),
                       "unexpected yield"));
}

TEST(WorkerSession, DoneRangeMismatchIsRejected) {
  EXPECT_TRUE(contains(rejection(format_done(0, 2)), "matches no lease"));
  const Lease lease{0, 2, 6};
  EXPECT_TRUE(contains(rejection(format_done(2, 5), true, &lease),
                       "matches no lease"));
}

TEST(WorkerSession, CorruptReportFrameIsRejected) {
  Wire w;
  w.hello();
  w.session->grant({5, 0, 2});
  w.say(format_done(0, 2));
  w.say("EPAB but not really a report");
  try {
    (void)w.event();
    FAIL() << "expected OrchestratorError";
  } catch (const OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "bad report frame for lease 5"))
        << e.what();
  }
}

TEST(WorkerSession, ArenaHandoffMustMatchThePlane) {
  // No plane takes a report out of an arena any more: the four-field
  // DONE the shm plane once sent is not a protocol line, lease or no
  // lease.
  const Lease lease{0, 0, 2};
  EXPECT_TRUE(contains(rejection("DONE 0 2 64 10", true, &lease),
                       "unexpected protocol message 'DONE 0 2 64 10'"));
  EXPECT_TRUE(contains(rejection("DONE 0 2 64 10"),
                       "unexpected protocol message"));
}

TEST(WorkerSession, ExitStatusClassification) {
  EXPECT_EQ(exit_event(2, 0).kind, WorkerEvent::Kind::exited);
  EXPECT_EQ(exit_event(2, 4).kind, WorkerEvent::Kind::preempted);
  EXPECT_EQ(exit_event(2, 9).kind, WorkerEvent::Kind::died);
  EXPECT_EQ(exit_event(2, 9).status, 9);
  EXPECT_EQ(exit_event(2, 9).worker, 2u);
}

TEST(WorkerSession, ShutdownClosesASeparateWriteEndOnly) {
  // A pipe pair: EXIT, then EOF on the worker's input.
  int in[2], out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  {
    WorkerSession s(0, in[1], out[0]);
    s.shutdown();
    FrameBuffer fb;
    std::string payload;
    ASSERT_TRUE(recv_frame(in[0], &fb, &payload, 2000));
    EXPECT_EQ(payload, "EXIT");
    EXPECT_FALSE(recv_frame(in[0], &fb, &payload, 2000));
    EXPECT_TRUE(s.open());  // still reading: the exit has to land
  }
  ::close(in[0]);
  ::close(out[1]);

  // A socket: EXIT, and the socket stays open for the BYE.
  Wire w;
  w.session->shutdown();
  EXPECT_EQ(w.hear(), "EXIT");
  w.say(format_hello(kWorkerProtocolVersion));
  EXPECT_TRUE(w.event().has_value());
}

}  // namespace
}  // namespace ep::core

// The coordinator's half of the worker protocol, once for every data
// plane, and the local-process transport built on it.
//
// WorkerSession is one worker on the far side of a framed fd pair
// (core/protocol.hpp framing): a fork/exec worker's stdin/stdout pipes,
// or a dialed-in worker's socket passed as both ends. It reassembles
// frames, gates on the HELLO handshake, turns PING/YIELD/DONE into typed
// WorkerEvents, checks every DONE against the lease it granted, picks up
// the lease report — the binary frame right after DONE, on every plane —
// and records BYE.
//
// FramedTransport is a Transport over a fleet of sessions: PLAN, LEASE, STEAL,
// FEEDBACK and EXIT go out as frames, and wait_any() is the one poll loop over
// every session's read end. It is built around one plan, and the first frames
// of every session it opens are that plan: `PLAN <items>`, then the binary
// plan frame — the same message that later switches a worker to another plan
// of a suite. A subclass says only how a worker's fds are obtained (spawn) and
// how a closed worker's death is classified (reap). net::TcpTransport
// (net/transport_tcp.hpp) is the remote subclass; LocalProcessTransport, here,
// fork/execs `epa_cli worker` on this machine with its stdin/stdout as the
// session (the pipe plane; `--data-plane shm` names it too). A local fleet
// writes no files.
//
// Worker stderr is inherited (progress and diagnostics pass through);
// stdout carries frames only, starting with `HELLO 4`. Exit statuses
// mirror run-shard: 0 clean, 1 failure, 4 preempted (SIGTERM — the
// worker finishes its in-flight lease, then refuses the next one). A
// local worker's death is classified from its wait(2) status: exit 0 is
// `exited`, exit 4 and the preemption signals are `preempted` (re-lease
// and replace), anything else is `died` (would only fail again). The
// worker's BYE is recorded but not needed here.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "core/orchestrator.hpp"
#include "core/protocol.hpp"

namespace ep::core {

/// The event a worker's exit status means: 0 `exited`, 4 `preempted`,
/// anything else `died` — whether the status came from wait(2) or BYE.
WorkerEvent exit_event(std::size_t worker, int status);

/// One worker's protocol session on the coordinator. Owns its fds.
class WorkerSession {
 public:
  /// `in_fd` is the worker's input (we write), `out_fd` its output (we
  /// read); a socket is passed as both and closed once.
  WorkerSession(std::size_t id, int in_fd, int out_fd);
  ~WorkerSession();
  WorkerSession(const WorkerSession&) = delete;
  WorkerSession& operator=(const WorkerSession&) = delete;

  std::size_t id() const { return id_; }
  /// False once close()d — the worker is gone from the fleet.
  bool open() const { return out_fd_ >= 0; }
  int read_fd() const { return out_fd_; }
  bool saw_eof() const { return saw_eof_; }
  bool said_bye() const { return said_bye_; }
  int bye_status() const { return bye_status_; }

  /// One frame to the worker, best effort: false on a dead peer or a
  /// closed write end — the death surfaces on the read side.
  bool send(const std::string& payload);
  /// LEASE `lease` (report target `-`: the report returns as the frame
  /// after DONE); the lease is remembered so YIELD and DONE can be
  /// checked against it. A lease granted while another is in flight
  /// queues behind it: the worker drains its leases in grant order.
  void grant(const Lease& lease);
  /// PLAN <items>, then `plan_wire` (a binary plan of `items` items) as
  /// the next frame: the worker replaces the plan it holds. Best effort
  /// like send().
  bool load(std::size_t items, const std::string& plan_wire);
  /// EXIT, then close the write end when it is its own fd (a pipe): EOF
  /// ends the worker loop even if EXIT was lost to a half-dead worker. A
  /// socket stays open — the BYE still has to arrive.
  void shutdown();
  /// Close both ends. No further events.
  void close();

  /// Block up to `timeout_ms` for the worker's first frame and pass it
  /// through the HELLO gate — the tcp handshake, completed before the
  /// plan ships. False when the worker hung up or stayed silent; throws
  /// OrchestratorError when it opened with anything but a matching HELLO.
  bool handshake(long timeout_ms);
  /// One read() of what poll() reported readable; EOF or a read error
  /// sets saw_eof().
  void pump();
  /// The next event in the buffered frames, or nullopt when more bytes
  /// are needed. Throws OrchestratorError on a protocol violation.
  std::optional<WorkerEvent> next_event();

 private:
  std::optional<WorkerEvent> on_frame(const std::string& frame);
  [[noreturn]] void fail(const std::string& why) const;

  std::size_t id_;
  int in_fd_;
  int out_fd_;
  FrameBuffer frames_;
  bool saw_eof_ = false;
  bool said_hello_ = false;
  bool said_bye_ = false;
  int bye_status_ = 0;
  bool awaiting_report_ = false;  // DONE seen; the next frame is the report
  // Granted and not yet reported, in grant order; the front is in
  // flight and shrinks in place when the worker YIELDs a tail.
  std::deque<Lease> leases_;
};

/// A Transport over framed worker sessions; see the file comment.
class FramedTransport : public Transport {
 public:
  /// `plan` is encoded once and shipped to every session adopt() opens.
  explicit FramedTransport(const InjectionPlan& plan);

  /// 2: a worker reads its session in order, so its next LEASE waits in
  /// the stream while it drains the current one.
  std::size_t lease_depth() const override { return 2; }
  void submit(std::size_t worker, const Lease& lease) override;
  void steal(std::size_t worker) override;
  /// FEEDBACK to the worker — the search plane's item append; the item
  /// spec rides as one token (wire.hpp's feedback_spec()).
  void feedback(std::size_t worker, const InjectionPlan& plan,
                std::size_t begin, std::size_t end) override;
  /// PLAN to the worker, then the plan's binary frame.
  void load(std::size_t worker, const InjectionPlan& plan) override;
  std::optional<WorkerEvent> wait_any(long timeout_ms) override;
  void shutdown(std::size_t worker) override;

 protected:
  /// Start a session on a connected worker's fds and ship it the
  /// construction plan (PLAN, then the binary plan frame) before anything
  /// else; its id is the next worker id. A worker that cannot take the
  /// plan is dead, and its death surfaces on the read side.
  WorkerSession& adopt(int in_fd, int out_fd);
  /// The session behind `worker`; throws naming `op` when there is none.
  WorkerSession& session(std::size_t worker, const char* op);
  /// `worker`'s read end hit EOF and its buffered frames are delivered:
  /// release it and classify the death.
  virtual WorkerEvent reap(std::size_t worker) = 0;

  std::deque<WorkerSession> sessions_;

 private:
  std::size_t plan_items_;
  std::string plan_wire_;  // binary EPAB plan
};

struct LocalProcessConfig {
  /// The worker binary — normally the running epa_cli itself
  /// (self_exe()).
  std::string epa_cli;
  /// Appended verbatim to every worker's argv: the worker-side flags the
  /// coordinator was given. Which flags those are, and how they are
  /// spelled, is the CLI's decision; the transport never parses them.
  std::vector<std::string> worker_flags;
  /// A plan file (JSON or binary) for the one-argument constructor. Kept
  /// only so perfbench/ compiles; delete with ROADMAP item 3.
  std::string plan_path;
  /// Unused. Kept only so perfbench/ compiles; delete with ROADMAP item 3.
  std::string out_dir;
  /// Unused. Kept only so perfbench/ compiles; delete with ROADMAP item 3.
  std::string file_prefix = "plan";
};

/// The local data plane: `epa_cli worker` processes forked with their
/// stdin/stdout as the framed session, each handed the plan as its first
/// frames.
class LocalProcessTransport : public FramedTransport {
 public:
  LocalProcessTransport(LocalProcessConfig config, const InjectionPlan& plan);
  /// Reads the plan from config.plan_path (JSON or binary). Kept only so
  /// perfbench/ compiles; delete with ROADMAP item 3.
  explicit LocalProcessTransport(LocalProcessConfig config);
  /// Kills (SIGTERM) and reaps any worker still alive — orchestrate()
  /// shuts workers down cleanly on success; this is the error-path net.
  ~LocalProcessTransport() override;

  LocalProcessTransport(const LocalProcessTransport&) = delete;
  LocalProcessTransport& operator=(const LocalProcessTransport&) = delete;

  std::optional<std::size_t> spawn() override;
  /// SIGKILL + reap, immediately — the deadman's path for a worker that
  /// is wedged (stopped, not exited) and will never answer SIGTERM.
  void kill(std::size_t worker) override;

  /// The absolute path of the running binary (/proc/self/exe), falling
  /// back to `argv0` where the link is unavailable — how `epa_cli
  /// orchestrate` names the worker binary without guessing.
  static std::string self_exe(const char* argv0);

 protected:
  WorkerEvent reap(std::size_t worker) override;

 private:
  LocalProcessConfig config_;
  std::vector<pid_t> pids_;  // by worker id
};

/// LocalProcessTransport under its old shm-plane name; `leases` is
/// ignored. Kept only so perfbench/ compiles; delete with ROADMAP item 3.
class ShmLocalTransport : public LocalProcessTransport {
 public:
  ShmLocalTransport(LocalProcessConfig config, const InjectionPlan& plan,
                    const std::vector<Lease>& /*leases*/ = {})
      : LocalProcessTransport(std::move(config), plan) {}
};

}  // namespace ep::core

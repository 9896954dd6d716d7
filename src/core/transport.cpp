#include "core/transport.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <utility>

namespace ep::core {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw OrchestratorError(what + ": " + std::strerror(errno));
}

void set_cloexec(int fd) {
  int flags = ::fcntl(fd, F_GETFD);
  if (flags < 0 || ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) < 0)
    sys_fail("fcntl(FD_CLOEXEC)");
}

/// SIGTERM-family deaths are preemptions (the cluster took the host
/// back); anything else — SIGSEGV, SIGABRT — is a worker bug that a
/// respawn would only repeat.
bool signal_is_preemption(int signo) {
  return signo == SIGTERM || signo == SIGKILL || signo == SIGINT ||
         signo == SIGHUP;
}

int wait_for(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

}  // namespace

WorkerEvent exit_event(std::size_t worker, int status) {
  WorkerEvent ev;
  ev.worker = worker;
  ev.status = status;
  ev.kind = status == 0   ? WorkerEvent::Kind::exited
            : status == 4 ? WorkerEvent::Kind::preempted
                          : WorkerEvent::Kind::died;
  return ev;
}

// --- WorkerSession ----------------------------------------------------------

WorkerSession::WorkerSession(std::size_t id, int in_fd, int out_fd)
    : id_(id), in_fd_(in_fd), out_fd_(out_fd) {}

WorkerSession::~WorkerSession() { close(); }

void WorkerSession::close() {
  if (in_fd_ >= 0 && in_fd_ != out_fd_) ::close(in_fd_);
  if (out_fd_ >= 0) ::close(out_fd_);
  in_fd_ = out_fd_ = -1;
}

bool WorkerSession::send(const std::string& payload) {
  return send_frame(in_fd_, payload);
}

void WorkerSession::grant(const Lease& lease) {
  has_lease_ = true;
  lease_ = lease;
  send(format_lease(lease.begin, lease.end, "-"));
}

void WorkerSession::shutdown() {
  send(format_exit());
  if (in_fd_ >= 0 && in_fd_ != out_fd_) {
    ::close(in_fd_);
    in_fd_ = -1;
  }
}

bool WorkerSession::handshake(long timeout_ms) {
  std::string frame;
  try {
    if (!recv_frame(out_fd_, &frames_, &frame, timeout_ms)) return false;
  } catch (const OrchestratorError&) {
    return false;  // timed out or died mid-frame
  }
  (void)on_frame(frame);
  return true;
}

void WorkerSession::pump() {
  char buf[1 << 16];
  ssize_t n = ::read(out_fd_, buf, sizeof buf);
  if (n > 0)
    frames_.feed(buf, static_cast<std::size_t>(n));
  else if (n == 0 || (errno != EINTR && errno != EAGAIN))
    saw_eof_ = true;
}

std::optional<WorkerEvent> WorkerSession::next_event() {
  std::string frame;
  while (frames_.pop(&frame))
    if (std::optional<WorkerEvent> ev = on_frame(frame)) return ev;
  return std::nullopt;
}

void WorkerSession::fail(const std::string& why) const {
  throw OrchestratorError("worker " + std::to_string(id_) + " " + why);
}

std::optional<WorkerEvent> WorkerSession::on_frame(const std::string& frame) {
  WorkerEvent ev;
  ev.worker = id_;
  ev.lease = lease_;

  if (awaiting_report_) {
    awaiting_report_ = false;
    has_lease_ = false;
    ev.kind = WorkerEvent::Kind::lease_done;
    ev.label = "worker " + std::to_string(id_) + " lease " +
               std::to_string(lease_.seq);
    try {
      ev.report = shard_report_from_binary(frame.data(), frame.size());
    } catch (const WireError& e) {
      fail("sent a bad report frame for lease " +
           std::to_string(lease_.seq) + ": " + e.what());
    }
    return ev;
  }

  ProtocolMsg msg;
  if (!parse_protocol_line(frame, &msg))
    fail("sent an unexpected protocol message '" + frame + "'");

  if (!said_hello_) {
    if (msg.type != ProtocolMsg::Type::hello)
      fail("opened with '" + frame + "' instead of HELLO " +
           std::to_string(kWorkerProtocolVersion) +
           " (a pre-handshake fleet?)");
    if (msg.version != kWorkerProtocolVersion)
      fail("speaks worker protocol version " + std::to_string(msg.version) +
           "; this coordinator speaks version " +
           std::to_string(kWorkerProtocolVersion) +
           " — upgrade so both ends match");
    said_hello_ = true;
    ev.kind = WorkerEvent::Kind::heartbeat;
    return ev;
  }

  switch (msg.type) {
    case ProtocolMsg::Type::ping:
      ev.kind = WorkerEvent::Kind::heartbeat;
      return ev;
    case ProtocolMsg::Type::yield:
      // YIELD <mid> <end>: the worker keeps [begin, mid) of its lease and
      // surrenders [mid, end). Shrink our record so the upcoming
      // DONE <begin> <mid> matches it.
      if (!has_lease_ || msg.begin <= lease_.begin ||
          msg.begin >= lease_.end || msg.end != lease_.end)
        fail("sent an unexpected yield '" + frame + "'");
      ev.kind = WorkerEvent::Kind::lease_yielded;
      ev.yield_mid = msg.begin;
      lease_.end = msg.begin;
      return ev;
    case ProtocolMsg::Type::done:
      if (!has_lease_ || msg.begin != lease_.begin || msg.end != lease_.end)
        fail("sent a DONE '" + frame + "' that matches no lease it holds");
      awaiting_report_ = true;
      return std::nullopt;  // the next frame carries the report
    case ProtocolMsg::Type::bye:
      // The exit announcement; the event is raised when the close lands.
      said_bye_ = true;
      bye_status_ = msg.status;
      return std::nullopt;
    default:
      // A second HELLO; LEASE/FEEDBACK/STEAL/EXIT are coordinator-to-
      // worker only.
      fail("sent an unexpected protocol message '" + frame + "'");
  }
}

// --- FramedTransport --------------------------------------------------------

WorkerSession& FramedTransport::adopt(int in_fd, int out_fd) {
  return sessions_.emplace_back(sessions_.size(), in_fd, out_fd);
}

WorkerSession& FramedTransport::session(std::size_t worker, const char* op) {
  if (worker >= sessions_.size())
    throw OrchestratorError(std::string(op) + ": unknown worker " +
                            std::to_string(worker));
  return sessions_[worker];
}

void FramedTransport::submit(std::size_t worker, const Lease& lease) {
  session(worker, "submit").grant(lease);
}

void FramedTransport::steal(std::size_t worker) {
  session(worker, "steal").send(format_steal());
}

void FramedTransport::feedback(std::size_t worker, const InjectionPlan& plan,
                               std::size_t begin, std::size_t end) {
  session(worker, "feedback")
      .send(format_feedback(begin, end, feedback_spec(plan, begin, end)));
}

void FramedTransport::shutdown(std::size_t worker) {
  session(worker, "shutdown").shutdown();
}

std::optional<WorkerEvent> FramedTransport::wait_any(long timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<WorkerSession*> owners;
  for (;;) {
    // Deliver buffered frames before reaping: a worker that sent DONE
    // (and its report) and exited must yield lease_done first, or its
    // finished lease would be pointlessly re-drained.
    for (WorkerSession& s : sessions_) {
      if (!s.open()) continue;
      if (std::optional<WorkerEvent> ev = s.next_event()) return ev;
      if (s.saw_eof()) return reap(s.id());
    }

    fds.clear();
    owners.clear();
    for (WorkerSession& s : sessions_) {
      if (!s.open() || s.saw_eof()) continue;
      fds.push_back({s.read_fd(), POLLIN, 0});
      owners.push_back(&s);
    }
    if (fds.empty())
      throw OrchestratorError("wait_any: no live workers to wait on");
    int ready = ::poll(fds.data(), fds.size(),
                       timeout_ms < 0 ? -1 : static_cast<int>(timeout_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }
    if (ready == 0) return std::nullopt;  // the deadman's polling edge
    for (std::size_t i = 0; i < fds.size(); ++i)
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) owners[i]->pump();
  }
}

// --- LocalProcessTransport --------------------------------------------------

LocalProcessTransport::LocalProcessTransport(LocalProcessConfig config)
    : config_(std::move(config)) {
  // A worker can die between our poll() and our write(); without this
  // the resulting EPIPE would kill the coordinator instead of surfacing
  // as an ordinary worker-death event.
  std::signal(SIGPIPE, SIG_IGN);
}

LocalProcessTransport::~LocalProcessTransport() {
  for (WorkerSession& s : sessions_) {
    if (!s.open()) continue;
    s.close();
    ::kill(pids_[s.id()], SIGTERM);
    (void)wait_for(pids_[s.id()]);
  }
}

std::string LocalProcessTransport::self_exe(const char* argv0) {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0 ? argv0 : "epa_cli";
}

std::vector<std::string> LocalProcessTransport::worker_args() const {
  std::vector<std::string> args = {"worker", config_.plan_path};
  args.insert(args.end(), config_.worker_flags.begin(),
              config_.worker_flags.end());
  return args;
}

std::optional<std::size_t> LocalProcessTransport::spawn() {
  int to_child[2];   // coordinator writes, worker reads (stdin)
  int from_child[2]; // worker writes (stdout), coordinator reads
  if (::pipe(to_child) < 0) sys_fail("pipe");
  if (::pipe(from_child) < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    sys_fail("pipe");
  }
  // The coordinator-side ends must not leak into *any* worker: a sibling
  // holding a copy of this worker's stdin write-end would defeat the
  // EOF-on-shutdown signal.
  set_cloexec(to_child[1]);
  set_cloexec(from_child[0]);

  // Built before fork: the data plane decides the argv tail.
  std::vector<std::string> args = {config_.epa_cli};
  for (std::string& a : worker_args()) args.push_back(std::move(a));

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    sys_fail("fork");
  }
  if (pid == 0) {
    // Worker: framed session on stdin/stdout, stderr inherited.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(from_child[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "epa: cannot exec worker '%s': %s\n",
                 config_.epa_cli.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  pids_.push_back(pid);
  return adopt(to_child[1], from_child[0]).id();
}

WorkerEvent LocalProcessTransport::reap(std::size_t worker) {
  sessions_[worker].close();
  int status = wait_for(pids_[worker]);
  if (WIFEXITED(status)) return exit_event(worker, WEXITSTATUS(status));
  WorkerEvent ev;
  ev.worker = worker;
  ev.kind = WorkerEvent::Kind::died;
  if (WIFSIGNALED(status)) {
    ev.status = -WTERMSIG(status);
    if (signal_is_preemption(WTERMSIG(status)))
      ev.kind = WorkerEvent::Kind::preempted;
  }
  return ev;
}

void LocalProcessTransport::kill(std::size_t worker) {
  WorkerSession& s = session(worker, "kill");
  if (!s.open()) return;
  s.close();
  // SIGKILL, not SIGTERM: the deadman fires for workers that are wedged
  // (stopped, swallowing signals, spinning) — the polite signal already
  // had its chance via the heartbeat window.
  ::kill(pids_[worker], SIGKILL);
  (void)wait_for(pids_[worker]);
}

// --- ShmLocalTransport ------------------------------------------------------

ShmLocalTransport::ShmLocalTransport(LocalProcessConfig config,
                                     const InjectionPlan& plan,
                                     const std::vector<Lease>& /*leases*/)
    : LocalProcessTransport(std::move(config)),
      arena_(ShmArena::create(this->config().out_dir + "/" +
                                  this->config().file_prefix + ".arena",
                              plan_to_binary(plan))) {}

std::vector<std::string> ShmLocalTransport::worker_args() const {
  std::vector<std::string> args = {"worker", "--arena", arena_.path()};
  args.insert(args.end(), config().worker_flags.begin(),
              config().worker_flags.end());
  return args;
}

}  // namespace ep::core

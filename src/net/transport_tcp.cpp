#include "net/transport_tcp.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace ep::net {

namespace {

using core::OrchestratorError;

[[noreturn]] void sys_fail(const std::string& what) {
  throw OrchestratorError(what + ": " + std::strerror(errno));
}

/// Frames are small request/response messages (LEASE out, DONE and its
/// report back): with Nagle's algorithm on, a frame written while the
/// previous one is unacknowledged waits out the peer's delayed ACK, tens
/// of milliseconds per lease.
void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

int tcp_listen(int port, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("bind to port " + std::to_string(port));
  }
  if (::listen(fd, 64) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("getsockname");
  }
  if (bound_port) *bound_port = ntohs(addr.sin_port);
  return fd;
}

int tcp_accept(int listen_fd, long timeout_ms) {
  for (;;) {
    pollfd pfd{listen_fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1,
                       timeout_ms < 0 ? -1 : static_cast<int>(timeout_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll(listen)");
    }
    if (ready == 0) return -1;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    sys_fail("accept");
  }
}

int tcp_connect(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &res);
  if (rc != 0)
    throw OrchestratorError("cannot resolve '" + host +
                            "': " + ::gai_strerror(rc));
  int fd = -1;
  int saved = 0;
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(fd);
      break;
    }
    saved = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    errno = saved;
    sys_fail("connect to " + host + ":" + std::to_string(port));
  }
  return fd;
}

TcpTransport::TcpTransport(TcpTransportConfig config,
                           const core::InjectionPlan& plan)
    : FramedTransport(plan), config_(std::move(config)) {
  listen_fd_ = tcp_listen(config_.listen_port, &port_);
  if (!config_.port_file.empty()) {
    // Written via rename so a script polling the file never reads a
    // half-written port number.
    std::string tmp = config_.port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (!f || std::fprintf(f, "%d\n", port_) < 0 || std::fclose(f) != 0)
      sys_fail("write port file '" + config_.port_file + "'");
    if (std::rename(tmp.c_str(), config_.port_file.c_str()) != 0)
      sys_fail("rename port file '" + config_.port_file + "'");
  }
}

TcpTransport::~TcpTransport() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::optional<std::size_t> TcpTransport::spawn() {
  // The initial fleet is worth a long wait; a respawn only polls the
  // accept queue — a pre-started spare is adopted instantly, and nullopt
  // otherwise lets the orchestrator run on with fewer workers.
  const bool initial = accepted_ < static_cast<std::size_t>(config_.workers);
  int fd = tcp_accept(listen_fd_,
                      initial ? config_.accept_timeout_ms : 250);
  if (fd < 0) return std::nullopt;
  ++accepted_;

  // The socket is both ends of the session, and the plan is on its way
  // down it. A dud connection (silent, or gone before saying HELLO) is
  // dropped; a worker that opens with anything but a matching HELLO
  // throws from the gate.
  core::WorkerSession& s = adopt(fd, fd);
  bool ok = false;
  try {
    ok = s.handshake(config_.handshake_timeout_ms);
  } catch (...) {
    sessions_.pop_back();
    throw;
  }
  if (!ok) {
    sessions_.pop_back();
    return std::nullopt;
  }
  return s.id();
}

core::WorkerEvent TcpTransport::reap(std::size_t worker) {
  core::WorkerSession& s = sessions_[worker];
  s.close();
  if (!s.said_bye()) {
    // Dropped without a word: the host is gone (kill -9, power, network)
    // — indistinguishable from preemption, so treat it as one.
    core::WorkerEvent ev;
    ev.worker = worker;
    ev.kind = core::WorkerEvent::Kind::preempted;
    ev.status = -1;
    return ev;
  }
  return core::exit_event(worker, s.bye_status());
}

void TcpTransport::kill(std::size_t worker) {
  // The worker behind the socket sees EOF and exits; a wedged one is the
  // remote host's problem — its lease is already re-leased here.
  session(worker, "kill").close();
}

}  // namespace ep::net

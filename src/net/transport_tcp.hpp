// TcpTransport: the remote data plane — no shared filesystem, no fork.
// The coordinator listens; workers are started on any host (`epa_cli
// worker --connect host:port`) and dial in. spawn() adopts a connection
// from the accept queue — which, as on every framed plane, ships the plan
// down the socket as `PLAN <items>` followed by one binary EPAB frame —
// and passes the worker's first frame through the HELLO gate. From there
// the socket is an ordinary framed worker session (core/transport.hpp) —
// the same frames every data plane speaks, with each lease report riding
// back as the binary frame after DONE.
//
// Death has no exit status here, only silence and resets, so the
// classification is wire-level: a worker announces its exit with
// `BYE <status>` before closing (0 clean, 4 preempted, else failure); a
// connection that drops without BYE is a lost host — preempted, and the
// orchestrator's deadman covers the worse case of a socket that stays
// open while the worker behind it is wedged.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/transport.hpp"

namespace ep::net {

/// --- Socket plumbing ---

/// Bind + listen on `port` (0 = ephemeral); `*bound_port` gets the
/// actual port. Throws core::OrchestratorError on failure.
int tcp_listen(int port, int* bound_port);

/// Accept one connection, waiting up to `timeout_ms` (< 0 = forever).
/// Returns -1 on timeout.
int tcp_accept(int listen_fd, long timeout_ms);

/// Connect to host:port. Throws core::OrchestratorError on failure.
int tcp_connect(const std::string& host, int port);

/// --- The transport ---

struct TcpTransportConfig {
  /// Port to listen on; 0 picks an ephemeral port (see port()).
  int listen_port = 0;
  /// When set, the bound port is written here (atomic rename), so
  /// scripts that started the coordinator with --listen 0 can learn
  /// where to aim the workers.
  std::string port_file;
  /// Initial fleet size. The first this-many spawn() calls block up to
  /// accept_timeout_ms for a worker to dial in; later spawns (respawns
  /// after a death) only poll the accept queue briefly — a spare worker
  /// someone pre-started is adopted instantly, and nullopt otherwise
  /// lets the orchestrator continue with the smaller fleet.
  int workers = 2;
  long long accept_timeout_ms = 30000;
  /// How long a freshly accepted connection gets to say HELLO.
  long long handshake_timeout_ms = 10000;
};

class TcpTransport : public core::FramedTransport {
 public:
  /// Binds and listens immediately; `plan` is encoded once and shipped
  /// (PLAN, then the binary frame) to every worker that dials in. A
  /// worker moves on to later plans through load().
  TcpTransport(TcpTransportConfig config, const core::InjectionPlan& plan);
  /// Closes every socket — workers see EOF and exit; none are left
  /// holding a dead coordinator's connection.
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  std::optional<std::size_t> spawn() override;
  /// Closing the socket is all the reach there is across machines.
  void kill(std::size_t worker) override;

  int port() const { return port_; }

 protected:
  core::WorkerEvent reap(std::size_t worker) override;

 private:
  TcpTransportConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::size_t accepted_ = 0;
};

}  // namespace ep::net

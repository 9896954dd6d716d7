// The worker protocol — one grammar and one framing shared by every
// transport.
//
// A message is a protocol line (the grammar below) carried as one frame:
// a u32 little-endian payload length, then the payload. The framing is
// the same on every data plane — over a fork/exec worker's stdin/stdout
// (pipe and shm) and over a dialed-in worker's socket (tcp) — so the
// coordinator runs one session (core/transport.hpp) and the worker one
// channel, whatever the fd underneath. Binary payloads (a plan, a lease
// report) ride in the same frames as the lines.
//
// Version 4 grammar (version 1 had no HELLO/PING/STEAL/YIELD/BYE;
// version 3 added FEEDBACK, the search plane's item append; version 4
// adds PLAN, the plan switch that lets one fleet drain a whole suite):
//
//   worker -> coordinator
//     HELLO <version>                 first message a worker ever sends
//     PING                            liveness, sent at checkpoint flushes
//     YIELD <mid> <end>               answer to STEAL: the worker keeps
//                                     [begin, mid) and surrenders
//                                     [mid, end) of its in-flight lease
//     DONE <begin> <end>              lease finished; the next frame is
//                                     its binary report
//     BYE <status>                    exit status, sent before closing;
//                                     authoritative only where the
//                                     coordinator cannot wait(2) (tcp)
//
//   coordinator -> worker
//     PLAN <items>                    the next frame is a binary plan of
//                                     <items> items; the worker drops the
//                                     plan it holds and serves this one.
//                                     tcp's handshake sends a worker its
//                                     first plan this way; every later
//                                     plan arrives this way on every plane
//     LEASE <begin> <end> <target>    target: `-`, the only value a
//                                     worker accepts (the report returns
//                                     as the frame after DONE)
//     FEEDBACK <begin> <end> <spec>   append search-generated work items
//                                     [begin, end) to the worker's plan
//                                     before their lease arrives; <spec>
//                                     is one space-free token of comma-
//                                     separated point:kind:fault:param
//                                     entries (kind is `i` or `d`)
//     STEAL                           yield the undrained tail of the
//                                     current lease at the next checkpoint
//     EXIT                            finish up and exit 0
//
// A worker holds exactly one plan: PLAN replaces it (scenario resolved,
// prototype refrozen, executor rebuilt), so a worker's memory is that of
// one plan however many it serves.
//
// A worker reads its commands in order, so a LEASE of the plan it holds
// may arrive while the previous lease is still draining: it waits queued
// in the stream, and each DONE names the oldest lease not yet reported.
// STEAL only reaches a worker holding a single lease.
//
// A worker that opens with anything but `HELLO <kWorkerProtocolVersion>`
// is rejected with a diagnostic naming both versions — old fleets fail
// fast instead of wedging mid-campaign.
//
// Earlier version-3 builds also had an shm-only four-field DONE (the
// report left in a segment of a shared-memory plan file) and an
// `@`-prefixed LEASE target naming that segment. Both are gone, and so is
// that file: every worker's first plan is a PLAN frame.
#pragma once

#include <cstddef>
#include <string>

namespace ep::core {

/// The control-protocol version this build speaks. Bumped whenever the
/// grammar above changes incompatibly; the HELLO handshake enforces
/// agreement before any lease is granted.
inline constexpr long long kWorkerProtocolVersion = 4;

/// One parsed protocol message, either direction.
struct ProtocolMsg {
  enum class Type {
    hello,  ///< version
    ping,
    yield,  ///< begin = mid (the split point), end
    done,   ///< begin, end
    bye,    ///< status
    lease,  ///< begin, end, target
    feedback,  ///< begin, end, target = the item spec token
    plan,      ///< end = the item count of the plan frame that follows
    steal,
    exit_cmd,
  };
  Type type = Type::ping;
  long long version = 0;        // hello
  std::size_t begin = 0;        // lease, done, feedback; yield's split point
  std::size_t end = 0;          // lease, done, yield, feedback, plan
  std::string target;           // lease; feedback's item spec
  int status = 0;               // bye
};

/// Parse one message (no trailing newline). Returns false when the line
/// matches no production — the caller decides whether that is a protocol
/// error or a worker gone rogue.
bool parse_protocol_line(const std::string& line, ProtocolMsg* out);

/// Formatters — the exact bytes between the delimiters, no newline.
/// parse_protocol_line() round-trips each of these verbatim (the
/// WireFormatDoc test holds the documented grammar to that).
std::string format_hello(long long version);
std::string format_ping();
std::string format_yield(std::size_t mid, std::size_t end);
std::string format_done(std::size_t begin, std::size_t end);
std::string format_bye(int status);
std::string format_lease(std::size_t begin, std::size_t end,
                         const std::string& target);
std::string format_feedback(std::size_t begin, std::size_t end,
                            const std::string& spec);
std::string format_plan(std::size_t items);
std::string format_steal();
std::string format_exit();

/// Format one message back to its line — the inverse of
/// parse_protocol_line(), used by the doc test to prove the documented
/// transcript is canonical.
std::string format_protocol_msg(const ProtocolMsg& msg);

// --- Framing -----------------------------------------------------------

/// Incremental frame reassembly: feed() raw bytes, pop() complete
/// payloads. mid_frame() says bytes are buffered but incomplete — how
/// EOF-mid-frame is told apart from EOF at a boundary. pop() throws
/// OrchestratorError on a length prefix no real payload could have.
class FrameBuffer {
 public:
  void feed(const char* data, std::size_t n);
  bool pop(std::string* payload);
  bool mid_frame() const { return !buf_.empty(); }

 private:
  std::string buf_;
};

/// Write one length-prefixed frame. Returns false on any write failure
/// (EPIPE, reset, a closed fd) — the death story belongs to the read
/// side, not here.
bool send_frame(int fd, const std::string& payload);

/// Block until one frame is available in `fb` (reading from `fd` as
/// needed), the peer closes (returns false), or `timeout_ms` passes
/// (throws OrchestratorError; < 0 = wait forever). EOF mid-frame throws
/// — the peer died mid-sentence.
bool recv_frame(int fd, FrameBuffer* fb, std::string* payload,
                long timeout_ms = -1);

/// Drain whatever is readable *right now* into `fb` without blocking —
/// how a draining worker polls for STEAL between chunks. Returns false
/// once the peer has closed.
bool pump_nonblocking(int fd, FrameBuffer* fb);

}  // namespace ep::core

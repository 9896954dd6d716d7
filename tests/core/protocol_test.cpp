// The worker protocol (core/protocol.hpp): one grammar, one parser, one
// formatter set, and one length-prefixed framing, shared by the pipe,
// shm, and tcp data planes. The parser is strict — a protocol line is
// either exactly one production or a rejected worker, never a
// best-effort guess.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "core/orchestrator.hpp"

namespace ep::core {
namespace {

using Type = ProtocolMsg::Type;

TEST(Protocol, FormattersRoundTripThroughTheParser) {
  // Every formatter's output must parse back to the same message — the
  // formatters define the canonical bytes both directions of every
  // transport put on the wire.
  const std::vector<std::string> lines = {
      format_hello(kWorkerProtocolVersion),
      format_ping(),
      format_yield(3, 9),
      format_done(0, 4),
      format_bye(4),
      format_lease(0, 4, "lpr.lease0.json"),
      format_lease(9, 11, "-"),
      format_steal(),
      format_exit(),
      format_feedback(9, 11, "0:i:close-fails:0,1:d:short-read:7"),
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    ProtocolMsg msg;
    ASSERT_TRUE(parse_protocol_line(line, &msg));
    EXPECT_EQ(format_protocol_msg(msg), line);
  }
}

TEST(Protocol, ParsesEveryFieldOfEveryProduction) {
  ProtocolMsg m;
  ASSERT_TRUE(parse_protocol_line("HELLO 3", &m));
  EXPECT_EQ(m.type, Type::hello);
  EXPECT_EQ(m.version, 3);

  ASSERT_TRUE(parse_protocol_line("PING", &m));
  EXPECT_EQ(m.type, Type::ping);

  ASSERT_TRUE(parse_protocol_line("YIELD 3 9", &m));
  EXPECT_EQ(m.type, Type::yield);
  EXPECT_EQ(m.begin, 3u);  // the split point rides in `begin`
  EXPECT_EQ(m.end, 9u);

  ASSERT_TRUE(parse_protocol_line("DONE 0 4", &m));
  EXPECT_EQ(m.type, Type::done);
  EXPECT_EQ(m.begin, 0u);
  EXPECT_EQ(m.end, 4u);

  ASSERT_TRUE(parse_protocol_line("BYE 4", &m));
  EXPECT_EQ(m.type, Type::bye);
  EXPECT_EQ(m.status, 4);

  ASSERT_TRUE(parse_protocol_line("LEASE 0 4 report.json", &m));
  EXPECT_EQ(m.type, Type::lease);
  EXPECT_EQ(m.begin, 0u);
  EXPECT_EQ(m.end, 4u);
  EXPECT_EQ(m.target, "report.json");

  ASSERT_TRUE(parse_protocol_line("STEAL", &m));
  EXPECT_EQ(m.type, Type::steal);

  ASSERT_TRUE(parse_protocol_line("FEEDBACK 4 6 0:i:close-fails:0,2:d:short-read:7", &m));
  EXPECT_EQ(m.type, Type::feedback);
  EXPECT_EQ(m.begin, 4u);
  EXPECT_EQ(m.end, 6u);
  EXPECT_EQ(m.target, "0:i:close-fails:0,2:d:short-read:7");

  ASSERT_TRUE(parse_protocol_line("EXIT", &m));
  EXPECT_EQ(m.type, Type::exit_cmd);
}

TEST(Protocol, LeaseTargetIsOneToken) {
  // A lease target is a single token — a path with a space would be
  // ambiguous against future operands, so the parser rejects it rather
  // than guessing where the target ends.
  ProtocolMsg m;
  EXPECT_FALSE(parse_protocol_line("LEASE 1 2 /tmp/a dir/x.json", &m));
  ASSERT_TRUE(parse_protocol_line("LEASE 1 2 /tmp/a-dir/x.json", &m));
  EXPECT_EQ(m.target, "/tmp/a-dir/x.json");
}

TEST(Protocol, RejectsMalformedLines) {
  const std::vector<std::string> bad = {
      "",
      "FROB",
      "HELLO",            // missing version
      "HELLO two",
      "HELLO 2 extra",
      "PING 1",            // PING takes no operands
      "YIELD 3",           // missing end
      "YIELD 3 9 12",      // trailing junk
      "DONE",              // missing range
      "DONE 0",
      "DONE 0 4 128",      // DONE is exactly a range
      "DONE 0 4 128 64",   // the retired shm arena handoff
      "DONE 0 4 128 77 9",
      "BYE",
      "BYE 4 0",
      "BYE 999",           // an exit status fits in a byte
      "LEASE 0 4",         // missing target
      "LEASE x 4 t",
      "STEAL now",
      "EXIT 0",
      "FEEDBACK 4 6",      // missing item spec
      "FEEDBACK 4 6 a:i:f:0 b:i:f:0",  // spec is one token
      "FEEDBACK x 6 0:i:f:0",
      "lease 0 4 t",       // keywords are case-sensitive
      "DONE 0 99999999999999999999",  // overflow is a reject, not UB
  };
  for (const std::string& line : bad) {
    SCOPED_TRACE("'" + line + "'");
    ProtocolMsg m;
    EXPECT_FALSE(parse_protocol_line(line, &m));
  }
}

TEST(Protocol, VersionConstantIsThree) {
  // Bumping the protocol version must be a conscious act: this pins the
  // constant the HELLO handshake (and docs/WIRE_FORMAT.md) advertise.
  // v3 added FEEDBACK (the search plane's item append).
  EXPECT_EQ(kWorkerProtocolVersion, 3);
}

TEST(FrameBuffer, ReassemblesFramesFromArbitraryDribbles) {
  // One frame: length prefix 5, payload "hello", delivered a byte at a
  // time — pop() must stay false until the last byte lands.
  std::string wire = {5, 0, 0, 0};
  wire += "hello";
  FrameBuffer fb;
  std::string payload;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(fb.pop(&payload)) << "frame complete after " << i;
    fb.feed(wire.data() + i, 1);
  }
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "hello");
  EXPECT_FALSE(fb.mid_frame());
}

TEST(FrameBuffer, PopsBackToBackFramesFromOneFeed) {
  std::string wire = {2, 0, 0, 0};
  wire += "ab";
  wire += std::string{0, 0, 0, 0};  // an empty frame is legal
  wire += std::string{1, 0, 0, 0};
  wire += "c";
  FrameBuffer fb;
  fb.feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "ab");
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "c");
  EXPECT_FALSE(fb.pop(&payload));
}

TEST(FrameBuffer, MidFrameReportsBufferedIncompleteBytes) {
  std::string wire = {9, 0, 0, 0};
  wire += "inco";  // 4 of 9 payload bytes
  FrameBuffer fb;
  EXPECT_FALSE(fb.mid_frame());
  fb.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_FALSE(fb.pop(&payload));
  EXPECT_TRUE(fb.mid_frame());
}

TEST(FrameBuffer, OversizedLengthPrefixIsCorruptionNotAFrame) {
  // 0xFFFFFFFF bytes is no real plan or report; waiting for it to
  // "complete" would hang forever, so the buffer throws immediately.
  std::string wire = {'\xFF', '\xFF', '\xFF', '\xFF'};
  FrameBuffer fb;
  fb.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_THROW((void)fb.pop(&payload), OrchestratorError);
}

TEST(Frames, SendRecvRoundTripsOverASocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string big(100000, 'x');  // bigger than one read() chunk
  ASSERT_TRUE(send_frame(sv[0], "LEASE 0 4 -"));
  ASSERT_TRUE(send_frame(sv[0], big));
  FrameBuffer fb;
  std::string payload;
  ASSERT_TRUE(recv_frame(sv[1], &fb, &payload, 1000));
  EXPECT_EQ(payload, "LEASE 0 4 -");
  ASSERT_TRUE(recv_frame(sv[1], &fb, &payload, 1000));
  EXPECT_EQ(payload, big);
  // Clean EOF at a frame boundary: false, not an error.
  ::close(sv[0]);
  EXPECT_FALSE(recv_frame(sv[1], &fb, &payload, 1000));
  ::close(sv[1]);
}

TEST(Frames, EofMidFrameThrowsWhereEofAtABoundaryDoesNot) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char partial[] = {9, 0, 0, 0, 'x'};  // promises 9, delivers 1
  ASSERT_EQ(::write(sv[0], partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  ::close(sv[0]);
  FrameBuffer fb;
  std::string payload;
  EXPECT_THROW((void)recv_frame(sv[1], &fb, &payload, 1000),
               OrchestratorError);
  ::close(sv[1]);
}

TEST(Frames, RecvTimesOutWhenThePeerSaysNothing) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  FrameBuffer fb;
  std::string payload;
  EXPECT_THROW((void)recv_frame(sv[1], &fb, &payload, 20),
               OrchestratorError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Frames, PumpNonblockingNeverWaitsAndSpotsTheClose) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  FrameBuffer fb;
  EXPECT_TRUE(pump_nonblocking(sv[1], &fb));  // nothing there: no wait
  ASSERT_TRUE(send_frame(sv[0], "STEAL"));
  EXPECT_TRUE(pump_nonblocking(sv[1], &fb));
  std::string payload;
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "STEAL");
  ::close(sv[0]);
  EXPECT_FALSE(pump_nonblocking(sv[1], &fb));  // peer gone
  ::close(sv[1]);
}

}  // namespace
}  // namespace ep::core

// Wire codec for peer messages: the byte format TcpNetwork puts on real
// sockets (tcp_network.h).  The in-process transports pass Message
// objects around directly; a socket transport needs every payload —
// mappings, schemas, domains, Bloom filters — round-tripped through
// bytes with full fidelity, because the conformance suite demands
// byte-identical covers no matter which transport carried the session.
//
// Format (version 4, all integers little-endian, fixed width):
//
//   message  := u8 version | u8 payload-tag | str from | str to | payload
//   payload  := the payload struct's fields, in its Fields order
//               (message.h)
//   str      := u32 length | bytes
//   value    := u8 type (0 string, 1 int) | str / i64
//   domain   := u8 kind (0 all-strings, 1 all-ints, 2 enumerated)
//               | str name | [u32 count | value...]      (enumerated only)
//   cell     := u8 tag (0 constant, 1 variable)
//               | value / (u32 var | u32 n-exclusions | value...)
//
// Frames on a connection are length-prefixed:
//
//   frame := u32 payload-length | u64 origin-token | payload bytes
//
// The origin token identifies the sending TcpNetwork instance so a
// receiver can tell its own in-flight frames (which count toward its
// quiescence accounting) from frames of a remote instance.

#ifndef HYPERION_P2P_WIRE_H_
#define HYPERION_P2P_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "p2p/message.h"

namespace hyperion {
namespace wire {

// Version 2: ring-epoch fields on cluster messages and the rebalance
// handoff tags (15–17).  Version 3: the cumulative `next_expected` on
// acks (tag 8).  Version 4: the ack's type byte (arrival, or a probe
// answer: held / missing) and the tail-loss probe (tag 18).  Versions
// never mix on one cluster — peers run the same build — so decoding
// rejects any other version outright.
inline constexpr uint8_t kWireVersion = 4;

/// \brief Frame header: u32 payload length + u64 origin token.
inline constexpr size_t kFrameHeaderBytes = 12;

/// \brief Upper bound on one frame's payload; larger lengths mean a
/// corrupt or hostile stream and fail the connection loudly.
inline constexpr size_t kMaxFramePayloadBytes = 256u << 20;  // 256 MB

/// \brief Serializes `msg` (envelope + payload) to versioned wire bytes.
std::string EncodeMessage(const Message& msg);

/// \brief Parses wire bytes back into a Message.  Fails with
/// InvalidArgument on truncated, overlong, or malformed input — never
/// crashes on hostile bytes.
Result<Message> DecodeMessage(std::string_view bytes);

/// \brief Appends a length-prefixed frame carrying `payload` to `out`.
void AppendFrame(std::string_view payload, uint64_t origin_token,
                 std::string* out);

/// \brief Outcome of scanning a receive buffer for one complete frame.
struct FrameView {
  bool complete = false;      // false: need more bytes
  std::string_view payload;   // valid when complete
  uint64_t origin_token = 0;  // valid when complete
  size_t consumed = 0;        // bytes to drop from the buffer front
};

/// \brief Examines the front of `buffer` for a complete frame.  Fails
/// with InvalidArgument when the header declares an oversized payload.
Result<FrameView> PeekFrame(std::string_view buffer);

}  // namespace wire
}  // namespace hyperion

#endif  // HYPERION_P2P_WIRE_H_

// Socket frame format + incremental decoder.
//
// Every byte crossing a ProcEngine socket is a length-prefixed frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------
//        0     4  magic 'DGRF' (0x46524744 little-endian)
//        4     1  version (kFrameVersion)
//        5     1  type (FrameType)
//        6     2  membership generation (u16 LE; 0 until a worker is lost)
//        8     4  src endpoint / PE (u32 LE)
//       12     4  dst endpoint / PE (u32 LE)
//       16     4  payload length in bytes (u32 LE)
//       20     n  payload
//
// The decoder is incremental: feed() it whatever read() returned — half a
// header, three frames and a tail, anything — and next() yields complete
// frames in order. A frame whose bytes arrived across more than one feed()
// bumps partial_resumes (exported as TransportStats::partial_read_resumes).
// Bad magic, unknown version, or an oversized payload is a sticky error:
// the stream is unframed garbage and the connection must drop.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ids.h"
#include "util/enum_table.h"

namespace dgr {

inline constexpr std::uint32_t kFrameMagic = 0x46524744u;  // "DGRF"
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 20;
// Largest payload a peer may send; a full-graph handoff at the default
// chaos-harness scale is ~100 KiB, so 16 MiB is a generous ceiling.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

// X(kEnumerator, "name", "doc") — one row per frame type. A row's position
// is its wire code, so rows are only ever appended.
#define DGR_FRAME_TYPES(X)                                                    \
  X(kData, "data", "message-plane payload: task bytes or a channel frame")    \
  X(kSeed, "seed", "controller-originated marking task, bypasses the channel") \
  X(kRegister, "register", "worker → controller: first frame on a connection") \
  X(kRegisterAck, "register_ack", "controller → worker: accepted, + config")  \
  X(kReject, "reject", "controller → worker: refused, carries reason")        \
  X(kHandoff, "handoff", "controller → worker: graph partition snapshot")     \
  X(kPlaneBegin, "plane_begin", "controller → workers: a marking plane opens") \
  X(kRescueBegin, "rescue_begin", "controller → workers: rescue wave reopens") \
  X(kQuiesce, "quiesce", "controller → workers: wave done, flush + report")   \
  X(kMarkReport, "mark_report", "worker → controller: per-vertex marks")      \
  X(kPlaneDone, "plane_done", "worker → controller: termination at the root") \
  X(kShutdown, "shutdown", "controller → workers: exit cleanly")              \
  /* Telemetry plane (docs/OBSERVABILITY.md "Observing a cluster run"). */    \
  X(kTelemetry, "telemetry", "worker → controller: metrics/trace delta")      \
  X(kClockProbe, "clock_probe", "controller → worker: clock-offset probe")    \
  X(kClockEcho, "clock_echo", "worker → controller: probe + worker clock")    \
  /* Dynamic membership (docs/CLUSTER.md "Membership and failure model"). */  \
  X(kEpochFence, "epoch_fence", "controller → workers: adopt gen, void stale") \
  X(kHandoffAck, "handoff_ack", "worker → controller: handoff seq + verdict")

enum class FrameType : std::uint8_t { DGR_FRAME_TYPES(DGR_ENUMERATOR) };
inline constexpr const char* kFrameTypeNames[] = {
    DGR_FRAME_TYPES(DGR_ENUM_NAME)};
constexpr const char* frame_type_name(FrameType t) {
  return enum_name(kFrameTypeNames, t);
}

struct NetFrame {
  FrameType type = FrameType::kData;
  // Membership generation the sender believed current. Bumped by the
  // controller when a worker is lost; receivers drop kData/kSeed frames whose
  // gen differs from their own (the epoch fence), so marks from a failed
  // wave cannot leak into the restarted one. 0 until the first loss.
  std::uint16_t gen = 0;
  PeId src = 0;
  PeId dst = 0;
  std::vector<std::uint8_t> payload;
};

// Serialize header + payload into one contiguous buffer.
std::vector<std::uint8_t> encode_frame(const NetFrame& f);

// Incremental frame reassembler for one connection's byte stream.
class FrameCodec {
 public:
  explicit FrameCodec(std::uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  // Append n raw stream bytes. No-op after a sticky error.
  void feed(const std::uint8_t* p, std::size_t n);

  // Extract the next complete frame. Returns false when more bytes are
  // needed or the stream is in error.
  bool next(NetFrame& out);

  bool error() const { return error_; }
  const char* error_reason() const { return error_reason_; }

  // Frames whose bytes spanned more than one feed() call.
  std::uint64_t partial_resumes() const { return partial_resumes_; }
  // Frames rejected for exceeding max_payload.
  std::uint64_t oversized() const { return oversized_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;       // consumed prefix of buf_
  bool mid_frame_ = false;    // a frame straddles the last feed boundary
  bool resumed_ = false;      // current frame already straddled a boundary
  bool error_ = false;
  const char* error_reason_ = "";
  std::uint64_t partial_resumes_ = 0;
  std::uint64_t oversized_ = 0;
  std::uint32_t max_payload_;

  void fail(const char* reason) {
    error_ = true;
    error_reason_ = reason;
  }
};

}  // namespace dgr

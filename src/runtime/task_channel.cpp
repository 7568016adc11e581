#include "runtime/task_channel.h"

#include "net/wire.h"

namespace dgr {

void TaskChannel::set_hooks(std::uint32_t batch_bytes) {
  fault_.set_inject_hook(
      [this](FaultKind k, PeId src, PeId, std::size_t bytes) {
        static constexpr obs::Counter kFaultCounter[kNumFaultKinds] = {
            obs::Counter::kMsgDroppedInjected,
            obs::Counter::kMsgDupInjected,
            obs::Counter::kMsgReorderedInjected,
            obs::Counter::kMsgTruncatedInjected,
        };
        reg_.add(src, kFaultCounter[static_cast<std::size_t>(k)]);
        DGR_TRACE_EVENT(trace_.get(), obs::EventType::kFaultInjected,
                        Plane::kR, static_cast<std::uint16_t>(src), 0,
                        static_cast<std::uint64_t>(k), bytes);
      });
  ChannelManager::Hooks hooks;
  hooks.on_retransmit = [this](PeId src, PeId, std::uint64_t seq,
                               std::uint32_t attempt) {
    reg_.add(src, obs::Counter::kMsgRetransmit);
    DGR_TRACE_EVENT(trace_.get(), obs::EventType::kMsgRetransmit, Plane::kR,
                    static_cast<std::uint16_t>(src), 0, seq, attempt);
  };
  hooks.on_dup_suppressed = [this](PeId dst, PeId, std::uint64_t seq) {
    reg_.add(dst, obs::Counter::kMsgDupSuppressed);
    DGR_TRACE_EVENT(trace_.get(), obs::EventType::kMsgDupSuppressed,
                    Plane::kR, static_cast<std::uint16_t>(dst), 0, seq);
  };
  hooks.on_decode_error = [this](PeId pe) {
    reg_.add(pe, obs::Counter::kMsgDecodeError);
  };
  hooks.on_rtt = [this](PeId src, double rtt_us) {
    reg_.observe(src, obs::Hist::kChannelRtt, rtt_us);
  };
  hooks.on_batch_flush = [this, batch_bytes](PeId src, PeId,
                                             std::size_t payloads,
                                             std::size_t frame_bytes) {
    reg_.add(src, obs::Counter::kBatchFlush);
    reg_.add(src, obs::Counter::kMsgBatched, payloads);
    reg_.observe(src, obs::Hist::kBatchFillPct,
                 100.0 * static_cast<double>(frame_bytes) /
                     static_cast<double>(batch_bytes));
    DGR_TRACE_EVENT(trace_.get(), obs::EventType::kBatchFlush, Plane::kR,
                    static_cast<std::uint16_t>(src), 0,
                    static_cast<std::uint64_t>(payloads),
                    static_cast<std::uint64_t>(frame_bytes));
  };
  chan_.set_hooks(std::move(hooks));
}

void TaskChannel::send(PeId src, PeId dst, const Task& t,
                       std::uint64_t now_us) {
  Bytes bytes = encode_task(t);
  reg_.add(src, obs::Counter::kBytesSent, bytes.size());
  chan_.send(src, dst, std::move(bytes), now_us);
}

std::size_t TaskChannel::receive(PeId pe, const Bytes& frame,
                                 std::uint64_t now_us,
                                 std::vector<Task>& out) {
  std::size_t bad = 0;
  for (const Bytes& payload : chan_.on_frame(pe, frame, now_us)) {
    if (std::optional<Task> t = try_decode_task(payload)) {
      out.push_back(*t);
    } else {
      // Unreachable unless a checksum collision slips corruption past the
      // frame layer.
      reg_.add(pe, obs::Counter::kMsgDecodeError);
      ++bad;
    }
  }
  return bad;
}

}  // namespace dgr

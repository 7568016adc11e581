// The channel plane's one send/receive stack for marking tasks, shared by
// ThreadEngine (faults or force_reliable) and dgr_worker (use_channel):
//
//   send:    Task → encode_task → ChannelManager → FaultPlane → wire
//   receive: frame → ChannelManager::on_frame → try_decode_task → Tasks
//
// A FaultPlane always sits under the channel; a zero FaultSpec passes frames
// through unchanged. `wire` is where a frame leaves toward its destination:
// ThreadEngine feeds it straight back into receive() and pushes the tasks
// into the destination's run queue; dgr_worker ships it as a kData frame.
// Faults, retransmits, suppressed duplicates, decode errors, RTT samples and
// batch flushes are counted in the engine's registry and traced. Neither
// layer holds a lock while it sends or delivers, so a delivery may re-enter
// the stack: a data frame's standalone ack is sent, and delivered, from
// inside receive().
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/task.h"
#include "net/fault_plane.h"
#include "net/reliable_channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dgr {

class TaskChannel {
 public:
  using Bytes = std::vector<std::uint8_t>;
  using WireFn = FaultPlane::DeliverFn;

  // `reg` and `trace` are the engine's registry and trace ring; the ring is
  // read at every event, so the engine may enable it after construction.
  // (Inline, so no out-of-line symbol names the trace type: the trace-off
  // build's core libraries must reference none.)
  TaskChannel(std::uint32_t num_pes, FaultPlaneOptions faults,
              ReliableOptions reliable, obs::MetricsRegistry& reg,
              const std::unique_ptr<obs::TraceBuffer>& trace, WireFn wire)
      : reg_(reg),
        trace_(trace),
        fault_(num_pes, faults, std::move(wire)),
        chan_(num_pes, reliable,
              [this](PeId src, PeId dst, ChannelManager::Bytes frame) {
                fault_.send(src, dst, std::move(frame));
              }) {
    set_hooks(reliable.batch_bytes);
  }

  TaskChannel(const TaskChannel&) = delete;
  TaskChannel& operator=(const TaskChannel&) = delete;

  // Encode `t` and queue it on (src → dst); counts its bytes as sent by src.
  void send(PeId src, PeId dst, const Task& t, std::uint64_t now_us);

  // Feed one frame that arrived at `pe`, appending the tasks it releases (in
  // order, exactly once) to `out`. Returns how many released payloads failed
  // to decode; each is counted as a decode error at `pe`.
  std::size_t receive(PeId pe, const Bytes& frame, std::uint64_t now_us,
                      std::vector<Task>& out);

  // Channel timers of PE `pe` (see ChannelManager::flush / service).
  void flush(PeId pe, std::uint64_t now_us) { chan_.flush(pe, now_us); }
  void service(PeId pe, std::uint64_t now_us) { chan_.service(pe, now_us); }
  // Release every frame the fault plane holds back.
  void release_held() { fault_.flush(); }

  const FaultPlane& fault_plane() const { return fault_; }
  const ChannelManager& channels() const { return chan_; }

 private:
  // Count and trace fault injections and channel events.
  void set_hooks(std::uint32_t batch_bytes);

  obs::MetricsRegistry& reg_;
  const std::unique_ptr<obs::TraceBuffer>& trace_;
  FaultPlane fault_;
  ChannelManager chan_;
};

}  // namespace dgr

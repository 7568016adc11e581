#include "net/fault_plane.h"

#include "util/assert.h"

namespace dgr {

FaultPlane::FaultPlane(std::uint32_t num_pes, FaultPlaneOptions opt,
                       DeliverFn deliver)
    : num_pes_(num_pes ? num_pes : 1), deliver_(std::move(deliver)) {
  DGR_CHECK(deliver_ != nullptr);
  pairs_.reserve(static_cast<std::size_t>(num_pes_) * num_pes_);
  for (PeId src = 0; src < num_pes_; ++src) {
    for (PeId dst = 0; dst < num_pes_; ++dst) {
      auto p = std::make_unique<Pair>();
      // One independent substream per directed pair: decisions on (src,dst)
      // depend only on the seed and that pair's send sequence.
      p->rng = Rng::substream(opt.seed,
                              static_cast<std::uint64_t>(src) * num_pes_ + dst);
      p->spec = opt.spec;
      pairs_.push_back(std::move(p));
    }
  }
}

void FaultPlane::set_pair_spec(PeId src, PeId dst, FaultSpec spec) {
  Pair& p = pair(src, dst);
  std::lock_guard<std::mutex> lk(p.mu);
  p.spec = spec;
}

void FaultPlane::inject(Pair& p, FaultKind k, PeId src, PeId dst,
                        std::size_t bytes) {
  ++p.stats.injected[static_cast<std::size_t>(k)];
  if (hook_) hook_(k, src, dst, bytes);
}

void FaultPlane::send(PeId src, PeId dst, Bytes msg) {
  Pair& p = pair(src, dst);
  // Collected under the pair lock, delivered after releasing it: deliver_
  // may block (a queue or socket write) or re-enter send() with an ack, and
  // the pair lock must stay cheap.
  std::vector<Bytes> out;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    ++p.stats.sent;
    const FaultSpec& s = p.spec;
    bool dropped = false;
    if (s.drop > 0.0 && p.rng.chance(s.drop)) {
      dropped = true;
      inject(p, FaultKind::kDrop, src, dst, msg.size());
    }
    const std::size_t preexisting = p.held.size();
    if (!dropped) {
      if (s.truncate > 0.0 && !msg.empty() && p.rng.chance(s.truncate)) {
        inject(p, FaultKind::kTruncate, src, dst, msg.size());
        msg.resize(p.rng.below(msg.size()));
      }
      if (s.duplicate > 0.0 && p.rng.chance(s.duplicate)) {
        inject(p, FaultKind::kDuplicate, src, dst, msg.size());
        out.push_back(msg);  // extra copy, delivered immediately
      }
      if (s.reorder > 0.0 && p.rng.chance(s.reorder)) {
        inject(p, FaultKind::kReorder, src, dst, msg.size());
        const std::uint32_t span = s.reorder_span ? s.reorder_span : 1;
        p.held.push_back(Held{
            1 + static_cast<std::uint32_t>(p.rng.below(span)), std::move(msg)});
      } else {
        out.push_back(std::move(msg));
      }
    }
    // This send ages messages held by *earlier* sends; due ones release
    // after it — that is the reordering (a message held by this very call
    // survives at least one more send, so its delay is truly 1..span).
    // Retransmissions count as sends, so a held message can never be
    // stranded on a pair with pending recovery traffic.
    std::deque<Held> kept;
    for (std::size_t i = 0; i < p.held.size(); ++i) {
      Held& h = p.held[i];
      if (i < preexisting && --h.countdown == 0)
        out.push_back(std::move(h.msg));
      else
        kept.push_back(std::move(h));
    }
    p.held.swap(kept);
    p.stats.delivered += out.size();
  }
  for (Bytes& b : out) deliver_(src, dst, std::move(b));
}

void FaultPlane::flush() {
  for (PeId src = 0; src < num_pes_; ++src) {
    for (PeId dst = 0; dst < num_pes_; ++dst) {
      Pair& p = pair(src, dst);
      std::deque<Held> held;
      {
        std::lock_guard<std::mutex> lk(p.mu);
        held.swap(p.held);
        p.stats.delivered += held.size();
      }
      for (Held& h : held) deliver_(src, dst, std::move(h.msg));
    }
  }
}

FaultPlane::Stats FaultPlane::stats() const {
  Stats total;
  for (PeId src = 0; src < num_pes_; ++src) {
    for (PeId dst = 0; dst < num_pes_; ++dst) {
      const Stats s = pair_stats(src, dst);
      total.sent += s.sent;
      total.delivered += s.delivered;
      for (std::size_t k = 0; k < kNumFaultKinds; ++k)
        total.injected[k] += s.injected[k];
    }
  }
  return total;
}

FaultPlane::Stats FaultPlane::pair_stats(PeId src, PeId dst) const {
  const Pair& p = pair(src, dst);
  std::lock_guard<std::mutex> lk(p.mu);
  return p.stats;
}

}  // namespace dgr

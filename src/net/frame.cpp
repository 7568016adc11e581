#include "net/frame.h"

#include <cstring>

namespace dgr {
namespace {

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const NetFrame& f) {
  std::vector<std::uint8_t> b;
  b.reserve(kFrameHeaderSize + f.payload.size());
  put_u32(b, kFrameMagic);
  b.push_back(kFrameVersion);
  b.push_back(static_cast<std::uint8_t>(f.type));
  b.push_back(static_cast<std::uint8_t>(f.gen));
  b.push_back(static_cast<std::uint8_t>(f.gen >> 8));
  put_u32(b, f.src);
  put_u32(b, f.dst);
  put_u32(b, static_cast<std::uint32_t>(f.payload.size()));
  b.insert(b.end(), f.payload.begin(), f.payload.end());
  return b;
}

void FrameCodec::feed(const std::uint8_t* p, std::size_t n) {
  if (error_ || n == 0) return;
  // A partially decoded frame survived the previous feed boundary: when it
  // finally completes, that is one partial-read resume.
  if (mid_frame_ && !resumed_) {
    resumed_ = true;
    ++partial_resumes_;
  }
  // Compact the consumed prefix before growing, so a long-lived connection
  // doesn't accrete every byte it ever saw.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), p, p + n);
  mid_frame_ = buf_.size() > pos_;  // any unconsumed bytes = a frame in flight
}

bool FrameCodec::next(NetFrame& out) {
  if (error_) return false;
  const std::size_t avail = buf_.size() - pos_;
  const std::uint8_t* h = buf_.data() + pos_;
  // Validate the magic/version prefix on however many bytes have arrived:
  // garbage shorter than a full header must surface as an error immediately,
  // not leave the connection wedged waiting for a header that never comes.
  for (std::size_t i = 0; i < avail && i < 4; ++i) {
    if (h[i] != static_cast<std::uint8_t>(kFrameMagic >> (8 * i))) {
      fail("bad magic");
      return false;
    }
  }
  if (avail >= 5 && h[4] != kFrameVersion) {
    fail("unsupported version");
    return false;
  }
  if (avail < kFrameHeaderSize) return false;
  const std::uint32_t len = get_u32(h + 16);
  if (len > max_payload_) {
    ++oversized_;
    fail("oversized frame");
    return false;
  }
  if (avail < kFrameHeaderSize + len) return false;
  out.type = static_cast<FrameType>(h[5]);
  out.gen = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(h[6]) |
      (static_cast<std::uint16_t>(h[7]) << 8));
  out.src = get_u32(h + 8);
  out.dst = get_u32(h + 12);
  out.payload.assign(h + kFrameHeaderSize, h + kFrameHeaderSize + len);
  pos_ += kFrameHeaderSize + len;
  mid_frame_ = buf_.size() > pos_;
  resumed_ = false;  // the next frame starts a fresh straddle count
  return true;
}

}  // namespace dgr

#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

namespace dgr {
namespace {

// Big enough that a whole handoff or report wave queues in the kernel
// without the writer thread stalling mid-quiesce.
constexpr int kSockBufBytes = 1 << 20;

void tune(int fd, bool tcp) {
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSockBufBytes, sizeof(kSockBufBytes));
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSockBufBytes, sizeof(kSockBufBytes));
  if (tcp) {
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

bool fill_sockaddr_in(const SocketAddr& a, sockaddr_in& sa) {
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(a.port);
  return inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) == 1;
}

bool fill_sockaddr_un(const SocketAddr& a, sockaddr_un& sa) {
  std::memset(&sa, 0, sizeof(sa));
  sa.sun_family = AF_UNIX;
  if (a.path.size() >= sizeof(sa.sun_path)) return false;
  std::memcpy(sa.sun_path, a.path.c_str(), a.path.size() + 1);
  return true;
}

}  // namespace

std::string SocketAddr::str() const {
  if (tcp) return "tcp:" + host + ":" + std::to_string(port);
  return "uds:" + path;
}

bool SocketAddr::parse(const std::string& s, SocketAddr& out) {
  if (s.rfind("uds:", 0) == 0) {
    out = SocketAddr{};
    out.path = s.substr(4);
    return !out.path.empty();
  }
  if (s.rfind("tcp:", 0) == 0) {
    const std::size_t colon = s.rfind(':');
    if (colon == 3) return false;  // no port separator
    out = SocketAddr{};
    out.tcp = true;
    out.host = s.substr(4, colon - 4);
    if (out.host.empty()) return false;
    const std::string port = s.substr(colon + 1);
    if (port.empty()) return false;
    long v = 0;
    for (char c : port) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + (c - '0');
      if (v > 65535) return false;
    }
    out.port = static_cast<std::uint16_t>(v);
    return true;
  }
  return false;
}

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

bool Socket::write_all(const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a process signal.
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

long Socket::read_some(void* buf, std::size_t cap) {
  for (;;) {
    const ssize_t r = ::read(fd_, buf, cap);
    if (r < 0 && errno == EINTR) continue;
    return static_cast<long>(r);
  }
}

void Socket::shutdown_rdwr() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& o) noexcept
    : fd_(o.fd_), unlink_on_close_(o.unlink_on_close_),
      path_(std::move(o.path_)) {
  o.fd_ = -1;
  o.unlink_on_close_ = false;
}

bool Listener::open(SocketAddr& addr) {
  close();
  fd_ = ::socket(addr.tcp ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (addr.tcp) {
    int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa;
    if (!fill_sockaddr_in(addr, sa)) {
      error_ = "bad tcp address: " + addr.str();
      close();
      return false;
    }
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      error_ = std::string("bind: ") + std::strerror(errno);
      close();
      return false;
    }
    if (addr.port == 0) {
      socklen_t len = sizeof(sa);
      if (getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) == 0)
        addr.port = ntohs(sa.sin_port);
    }
  } else {
    ::unlink(addr.path.c_str());
    sockaddr_un sa;
    if (!fill_sockaddr_un(addr, sa)) {
      error_ = "uds path too long: " + addr.path;
      close();
      return false;
    }
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      error_ = std::string("bind: ") + std::strerror(errno);
      close();
      return false;
    }
    unlink_on_close_ = true;
    path_ = addr.path;
  }
  if (::listen(fd_, 64) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

Socket Listener::accept() {
  for (;;) {
    const int c = ::accept(fd_, nullptr, nullptr);
    if (c >= 0) {
      tune(c, /*tcp=*/path_.empty());
      return Socket(c);
    }
    if (errno == EINTR) continue;
    return Socket();
  }
}

void Listener::shutdown() {
  // Closing a listening fd does not wake a thread blocked in accept() on
  // Linux; shutdown() does (accept returns EINVAL). Call this before joining
  // the accept thread, and close() after.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (unlink_on_close_) {
    ::unlink(path_.c_str());
    unlink_on_close_ = false;
  }
  path_.clear();
}

Socket socket_connect(const SocketAddr& addr, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(addr.tcp ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      int rc;
      if (addr.tcp) {
        sockaddr_in sa;
        if (!fill_sockaddr_in(addr, sa)) {
          ::close(fd);
          return Socket();
        }
        rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
      } else {
        sockaddr_un sa;
        if (!fill_sockaddr_un(addr, sa)) {
          ::close(fd);
          return Socket();
        }
        rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
      }
      if (rc == 0) {
        tune(fd, addr.tcp);
        return Socket(fd);
      }
      ::close(fd);
    }
    if (std::chrono::steady_clock::now() >= deadline) return Socket();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace dgr

// Thin RAII wrapper over blocking BSD sockets (TCP loopback and Unix-domain),
// plus address parsing for the two URL-ish forms the tools accept:
//
//   tcp:HOST:PORT   e.g. tcp:127.0.0.1:7000  (port 0 = kernel-assigned)
//   uds:PATH        e.g. uds:/tmp/dgr.sock
//
// Blocking I/O with one reader and one writer thread per connection keeps the
// hub logic free of readiness state machines; write_all and read_some absorb
// partial transfers and EINTR, which is all the framing layer needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dgr {

struct SocketAddr {
  bool tcp = false;        // false = Unix-domain
  std::string host;        // tcp only
  std::uint16_t port = 0;  // tcp only
  std::string path;        // uds only

  std::string str() const;
  // Parse "tcp:HOST:PORT" or "uds:PATH". Returns false on malformed input.
  static bool parse(const std::string& s, SocketAddr& out);
};

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Write the whole buffer, looping over partial writes and EINTR.
  // Returns false on a hard error (peer gone).
  bool write_all(const void* data, std::size_t n);

  // One read() call: >0 bytes read, 0 on orderly shutdown, -1 on error.
  // Loops only on EINTR, so short reads surface to the framing layer.
  long read_some(void* buf, std::size_t cap);

  // Shut down both directions: wakes a blocked reader AND fails a writer
  // stuck against a full kernel buffer (shutdown-time teardown).
  void shutdown_rdwr();
  void close();

 private:
  int fd_ = -1;
};

// Listening socket bound to `addr`. For tcp with port 0 the bound port is
// discovered and written back into `addr`. Unix-domain paths are unlinked
// before bind so a stale socket file from a crashed run can't block startup.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& o) noexcept;
  Listener& operator=(Listener&&) = delete;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Returns false (with a message in error()) when bind/listen fails.
  bool open(SocketAddr& addr);

  // Block until a peer connects; invalid Socket on error/close.
  Socket accept();

  // Wake a thread blocked in accept() (it returns an invalid Socket).
  // Must precede close(): closing the fd alone does not interrupt accept().
  void shutdown();
  void close();
  bool valid() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

 private:
  int fd_ = -1;
  bool unlink_on_close_ = false;
  std::string path_;
  std::string error_;
};

// Connect to `addr`, retrying for up to timeout_ms (the controller may not
// have bound yet when a worker launches). Invalid Socket on failure.
Socket socket_connect(const SocketAddr& addr, int timeout_ms = 5000);

}  // namespace dgr

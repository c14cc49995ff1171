#pragma once
/// \file socket.hpp
/// \brief Thin POSIX socket RAII layer for the serve daemon and client.
///
/// Endpoints are spelled "unix:/path/to.sock" (Unix-domain, the default for
/// same-host deployments and the CI smoke test) or "tcp:host:port"
/// (loopback/LAN; port 0 binds an ephemeral port, resolved after listen).
/// The Listener's accept loop blocks in poll() on {listen fd, wake pipe} so
/// stop() can interrupt it without signals; sends use MSG_NOSIGNAL so a
/// client that vanished mid-response surfaces as an error return, not
/// SIGPIPE.

#include <cstddef>
#include <string>

namespace fsi::serve {

/// A parsed listen/connect address.
struct Endpoint {
  bool is_unix = true;
  std::string path;  ///< Unix-domain socket path
  std::string host;  ///< TCP host
  int port = 0;      ///< TCP port (0 = ephemeral when listening)

  /// Parse "unix:<path>" or "tcp:<host>:<port>".  Throws util::CheckError
  /// on any other spelling.
  static Endpoint parse(const std::string& spec);
  /// The canonical spec string ("unix:/tmp/fsi.sock", "tcp:127.0.0.1:7070").
  std::string describe() const;
};

/// Move-only owner of one connected socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write the whole buffer (handles short writes, EINTR; MSG_NOSIGNAL).
  /// Returns false on any error — the peer is gone.
  bool send_all(const void* data, std::size_t n);
  /// One recv: > 0 bytes read, 0 orderly EOF, -1 error.  Retries EINTR.
  long recv_some(void* out, std::size_t n);
  /// Half-close both directions (wakes a peer blocked in recv).
  void shutdown_both();
  void close();

 private:
  int fd_ = -1;
};

/// A listening socket plus a self-pipe so accept_once() can be interrupted.
class Listener {
 public:
  /// Bind + listen.  Unix sockets: an existing socket file at the path is
  /// unlinked first (stale from a previous run).  TCP port 0 is resolved to
  /// the bound port in endpoint().  Throws util::CheckError on failure.
  static Listener listen_on(const Endpoint& ep, int backlog = 16);

  Listener(Listener&&) noexcept;
  Listener& operator=(Listener&&) = delete;
  Listener(const Listener&) = delete;
  ~Listener();

  /// Block until a connection arrives or wake() is called.  Returns an
  /// invalid Socket when woken (or on a transient accept failure).
  Socket accept_once();
  /// Interrupt accept_once from another thread (idempotent).
  void wake();

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  Listener() = default;
  Endpoint endpoint_;
  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  bool unlink_on_close_ = false;
};

/// Connect to a serving endpoint.  Throws util::CheckError on failure.
Socket connect_to(const Endpoint& ep);

}  // namespace fsi::serve

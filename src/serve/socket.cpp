#include "fsi/serve/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "fsi/util/check.hpp"

namespace fsi::serve {

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.is_unix = true;
    ep.path = spec.substr(5);
    FSI_CHECK(!ep.path.empty(), "endpoint: empty unix socket path");
    FSI_CHECK(ep.path.size() < sizeof(sockaddr_un{}.sun_path),
              "endpoint: unix socket path too long");
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.is_unix = false;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    FSI_CHECK(colon != std::string::npos && colon > 0,
              "endpoint: expected tcp:<host>:<port>, got '" + spec + "'");
    ep.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    FSI_CHECK(end != nullptr && *end == '\0' && port >= 0 && port <= 65535,
              "endpoint: bad tcp port '" + port_str + "'");
    ep.port = static_cast<int>(port);
    return ep;
  }
  FSI_CHECK(false,
            "endpoint: expected unix:<path> or tcp:<host>:<port>, got '" +
                spec + "'");
  return ep;  // unreachable
}

std::string Endpoint::describe() const {
  return is_unix ? "unix:" + path : "tcp:" + host + ":" + std::to_string(port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const long sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (sent == 0) return false;
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

long Socket::recv_some(void* out, std::size_t n) {
  for (;;) {
    const long got = ::recv(fd_, out, n, 0);
    if (got < 0 && errno == EINTR) continue;
    return got;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

void make_unix_addr(const std::string& path, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
}

void make_tcp_addr(const std::string& host, int port, sockaddr_in& addr) {
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string resolved =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  FSI_CHECK(::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) == 1,
            "endpoint: cannot parse IPv4 address '" + resolved + "'");
}

}  // namespace

Listener Listener::listen_on(const Endpoint& ep, int backlog) {
  Listener l;
  l.endpoint_ = ep;

  int pipe_fds[2];
  FSI_CHECK(::pipe(pipe_fds) == 0, "listener: pipe() failed");
  l.wake_read_ = pipe_fds[0];
  l.wake_write_ = pipe_fds[1];

  if (ep.is_unix) {
    l.listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    FSI_CHECK(l.listen_fd_ >= 0, "listener: socket(AF_UNIX) failed");
    ::unlink(ep.path.c_str());  // stale socket file from a previous run
    sockaddr_un addr;
    make_unix_addr(ep.path, addr);
    FSI_CHECK(::bind(l.listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0,
              "listener: bind(" + ep.path + ") failed: " +
                  std::string(std::strerror(errno)));
    l.unlink_on_close_ = true;
  } else {
    l.listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    FSI_CHECK(l.listen_fd_ >= 0, "listener: socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(l.listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr;
    make_tcp_addr(ep.host, ep.port, addr);
    FSI_CHECK(::bind(l.listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0,
              "listener: bind(" + ep.describe() + ") failed: " +
                  std::string(std::strerror(errno)));
    if (ep.port == 0) {  // resolve the ephemeral port
      sockaddr_in bound;
      socklen_t len = sizeof bound;
      FSI_CHECK(::getsockname(l.listen_fd_,
                              reinterpret_cast<sockaddr*>(&bound), &len) == 0,
                "listener: getsockname failed");
      l.endpoint_.port = ntohs(bound.sin_port);
    }
  }
  FSI_CHECK(::listen(l.listen_fd_, backlog) == 0, "listener: listen failed");
  return l;
}

Listener::Listener(Listener&& other) noexcept
    : endpoint_(std::move(other.endpoint_)),
      listen_fd_(other.listen_fd_),
      wake_read_(other.wake_read_),
      wake_write_(other.wake_write_),
      unlink_on_close_(other.unlink_on_close_) {
  other.listen_fd_ = other.wake_read_ = other.wake_write_ = -1;
  other.unlink_on_close_ = false;
}

Listener::~Listener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
  if (unlink_on_close_) ::unlink(endpoint_.path.c_str());
}

Socket Listener::accept_once() {
  pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_, POLLIN, 0}};
  for (;;) {
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Socket();
    }
    if ((fds[1].revents & POLLIN) != 0) return Socket();  // woken for stop
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      return fd >= 0 ? Socket(fd) : Socket();
    }
  }
}

void Listener::wake() {
  if (wake_write_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const long n = ::write(wake_write_, &byte, 1);
  }
}

Socket connect_to(const Endpoint& ep) {
  if (ep.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    FSI_CHECK(fd >= 0, "connect: socket(AF_UNIX) failed");
    sockaddr_un addr;
    make_unix_addr(ep.path, addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const int err = errno;
      ::close(fd);
      FSI_CHECK(false, "connect(" + ep.describe() + ") failed: " +
                           std::string(std::strerror(err)));
    }
    return Socket(fd);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  FSI_CHECK(fd >= 0, "connect: socket(AF_INET) failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr;
  make_tcp_addr(ep.host, ep.port, addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    FSI_CHECK(false, "connect(" + ep.describe() + ") failed: " +
                         std::string(std::strerror(err)));
  }
  return Socket(fd);
}

}  // namespace fsi::serve

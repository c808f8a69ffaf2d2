#include "serve/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace secreta {

Result<ListeningSocket> ListenTcp(const std::string& address, uint16_t port,
                                  int backlog) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("bad bind address \"%s\"", address.c_str()));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  const char* failed = nullptr;
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    failed = "bind";
  } else if (::listen(fd, backlog) < 0) {
    failed = "listen";
  } else if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                           &bound_len) < 0) {
    failed = "getsockname";
  }
  if (failed != nullptr) {
    const int err = errno;  // before close can overwrite it
    ::close(fd);
    return Status::IOError(StrFormat("%s on %s:%u failed: %s", failed,
                                     address.c_str(),
                                     static_cast<unsigned>(port),
                                     std::strerror(err)));
  }
  return ListeningSocket{fd, ntohs(bound.sin_port)};
}

void SetReceiveTimeout(int fd, double seconds) {
  if (seconds <= 0) return;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

Status SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrFormat("send failed: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace secreta

// TCP plumbing shared by the query server (serve/server.h), its wire
// framing (serve/protocol.h) and the metrics endpoint (serve/http_metrics.h):
// a bound listening socket, a receive timeout, and a send that writes every
// byte.

#ifndef SECRETA_SERVE_SOCKET_H_
#define SECRETA_SERVE_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace secreta {

/// A listening socket and the port it is bound to.
struct ListeningSocket {
  int fd = -1;
  uint16_t port = 0;  // the kernel's pick when 0 was asked for
};

/// Opens a TCP socket (SO_REUSEADDR) bound to `address`:`port` and listening
/// with `backlog`; port 0 binds an ephemeral port. InvalidArgument when
/// `address` is not an IPv4 literal; IOError when the socket cannot be
/// created, bound (e.g. the port is in use) or put to listen. The caller
/// owns the returned fd.
Result<ListeningSocket> ListenTcp(const std::string& address, uint16_t port,
                                  int backlog);

/// Makes a blocking recv on `fd` fail with EAGAIN after `seconds` without
/// data. Best effort (a socket without the timeout still works); a value
/// <= 0 leaves the socket without one.
void SetReceiveTimeout(int fd, double seconds);

/// Sends all of `data`, retrying on EINTR and short writes. MSG_NOSIGNAL, so
/// a dead peer yields an IOError (EPIPE) instead of killing the process.
Status SendAll(int fd, std::string_view data);

}  // namespace secreta

#endif  // SECRETA_SERVE_SOCKET_H_

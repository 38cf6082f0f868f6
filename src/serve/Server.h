//===- Server.h - the cjpackd archive server -------------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running archive server behind `cjpackd`. It listens on a
/// unix-domain socket (and optionally TCP loopback), speaks the framed
/// protocol in Protocol.h, and serves pack/unpack/stat/verify/lint
/// requests against server-side paths. The performance story is the
/// ArchiveCache: repeated `unpack-class` against a hot archive skips
/// the open/mmap/index-parse and reuses already-decoded shard prefixes,
/// which is where the cold path spends nearly all of its time.
///
/// Threading model:
///   - one accept thread polls the listeners plus a self-pipe;
///   - each connection gets a reader thread (frame parsing, request
///     dispatch) and a writer thread (responses, in request order);
///   - handler work runs on one shared ThreadPool, whose workers take
///     requests from one FIFO queue, so a slow request on one
///     connection never starves another connection's requests, and
///     MaxInFlightPerConn bounds how many requests one client may have
///     queued (the reader blocks past the cap — backpressure, not
///     disconnect);
///   - a handler's library call runs at Threads = 1, so it starts no
///     thread of its own: parallelism comes from concurrent requests.
///
/// Isolation: every request decodes under its own DecodeBudget, built
/// from ServerConfig::RequestLimits by the library call it makes
/// (unpackClasses builds one per call and charges every inflate of
/// every archive version; readZip one per jar), so one hostile request
/// exhausting its budget cannot poison the next. The exception is
/// cached readers, whose budget (CacheLimits) spans the reader's cached
/// lifetime — safe because a cached shard inflates exactly once, so
/// total spend per archive is bounded by its raw shard bytes regardless
/// of request count.
///
/// Shutdown: requestStop() stops accepting, half-closes every active
/// connection's read side, and lets in-flight requests finish and
/// flush; wait() joins everything. A request parsed after stop is
/// answered with Status::ShuttingDown.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SERVE_SERVER_H
#define CJPACK_SERVE_SERVER_H

#include "serve/ArchiveCache.h"
#include "serve/Metrics.h"
#include "serve/Protocol.h"
#include "support/DecodeLimits.h"
#include "support/ThreadPool.h"
#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace cjpack::serve {

struct ServerConfig {
  /// Path for the unix-domain listener (required; unlinked on bind and
  /// again on shutdown).
  std::string UnixSocketPath;
  /// TCP loopback listener port: -1 disables TCP, 0 binds an ephemeral
  /// port (read it back from Server::tcpPort()).
  int TcpPort = -1;
  /// Handler threads in the shared pool (0 = one per hardware thread).
  unsigned Threads = 0;
  /// ArchiveCache capacity in archive file bytes (0 disables caching).
  size_t CacheBytes = 256u << 20;
  /// Requests one connection may have queued/executing before its
  /// reader blocks.
  unsigned MaxInFlightPerConn = 4;
  /// Idle read timeout per connection, seconds (0 = no timeout).
  unsigned ReadTimeoutSec = 60;
  /// Request frame payload cap (responses are bounded by the client's
  /// own MaxResponsePayload).
  uint32_t MaxRequestBytes = MaxRequestPayload;
  /// Argument-table caps for request parsing.
  ProtocolLimits Limits;
  /// Decode caps applied per request (fresh budget each time).
  DecodeLimits RequestLimits;
  /// Decode caps for cached readers (budget spans the cached lifetime).
  DecodeLimits CacheLimits;
};

class Server {
public:
  /// Binds the listeners and starts the accept loop. Fails with a
  /// typed Error when a socket cannot be bound.
  static Expected<std::unique_ptr<Server>> start(const ServerConfig &Config);

  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Stops accepting and begins a graceful drain. Safe to call from a
  /// signal-handling thread (not from a signal handler itself) and
  /// idempotent.
  void requestStop();

  /// Blocks until every connection has drained and every thread has
  /// joined. Implies requestStop() has been (or will be) called by
  /// someone; wait() itself never initiates the stop.
  void wait();

  /// Bound TCP port (0 when TCP is disabled). Useful with
  /// ServerConfig::TcpPort == 0.
  int tcpPort() const { return BoundTcpPort; }

  const ServerMetrics &metrics() const { return Metrics; }
  ArchiveCache &cache() { return *Cache; }

  /// Serves one parsed request. Public so tests and the bench can
  /// exercise handlers without a socket in the path.
  Response handle(const Request &Req);

private:
  struct Session;

  explicit Server(const ServerConfig &Config);

  Error bindListeners();
  void acceptLoop();
  void runSession(Session &S);
  void reapFinishedSessions();

  ServerConfig Config;
  std::unique_ptr<ArchiveCache> Cache;
  std::unique_ptr<ThreadPool> Pool;
  ServerMetrics Metrics;

  int UnixFd = -1;
  int TcpFd = -1;
  int BoundTcpPort = 0;
  int WakePipe[2] = {-1, -1};

  std::atomic<bool> Stopping{false};
  std::thread AcceptThread;

  std::mutex SessionsMu;
  std::list<std::unique_ptr<Session>> Sessions;
};

} // namespace cjpack::serve

#endif // CJPACK_SERVE_SERVER_H

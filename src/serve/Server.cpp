//===- Server.cpp - the cjpackd archive server ----------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "analysis/ArchiveAnalysis.h"
#include "pack/Packer.h"
#include "pack/Stats.h"
#include "zip/ZipFile.h"
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cjpack;
using namespace cjpack::serve;

namespace {

Error errnoError(const std::string &What) {
  return Error::failure(What + ": " + std::strerror(errno));
}

/// Reads exactly \p N bytes. Returns N on success, 0 on clean EOF at
/// the first byte, -1 on error/timeout/mid-read EOF.
ssize_t readFull(int Fd, uint8_t *Buf, size_t N) {
  size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::recv(Fd, Buf + Got, N - Got, 0);
    if (R == 0)
      return Got == 0 ? 0 : -1;
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    Got += static_cast<size_t>(R);
  }
  return static_cast<ssize_t>(Got);
}

/// Writes all of \p Data. MSG_NOSIGNAL so a client that hung up yields
/// EPIPE, not a process-killing SIGPIPE.
bool writeFull(int Fd, const std::vector<uint8_t> &Data) {
  size_t Sent = 0;
  while (Sent < Data.size()) {
    ssize_t W = ::send(Fd, Data.data() + Sent, Data.size() - Sent,
                       MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(W);
  }
  return true;
}

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return !In.bad();
}

bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Data) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out.write(reinterpret_cast<const char *>(Data.data()),
            static_cast<std::streamsize>(Data.size()));
  return static_cast<bool>(Out);
}

bool isClassName(const std::string &Name) {
  return Name.size() > 6 &&
         Name.compare(Name.size() - 6, 6, ".class") == 0;
}

/// Loads \p Path — a classfile, a jar/zip, or a cjpack archive of any
/// version — under \p Limits, and parses it for verify/lint. Classes
/// that do not parse come back as diagnostics in \p Diags.
Expected<std::vector<ClassFile>>
loadAndParse(const std::string &Path, const DecodeLimits &Limits,
             std::vector<analysis::Diagnostic> &Diags) {
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes))
    return Error::failure("cannot read '" + Path + "'");
  UnpackOptions Options;
  Options.Threads = 1;
  Options.Limits = Limits;
  auto Classes = loadClassSet(Bytes, Path, Options);
  if (!Classes)
    return Classes.takeError();
  std::vector<ClassFile> Parsed;
  std::vector<std::string> Names;
  parseClassSet(*Classes, Limits, Parsed, Names, Diags);
  return Parsed;
}

} // namespace

//===----------------------------------------------------------------------===//
// Request handlers
//===----------------------------------------------------------------------===//

Response Server::handle(const Request &Req) {
  auto BadArgc = [&Req](size_t Want) {
    return Response::fail(Status::BadRequest,
                          std::string(opcodeName(Req.Op)) + " takes " +
                              std::to_string(Want) + " argument(s), got " +
                              std::to_string(Req.Args.size()));
  };

  switch (Req.Op) {
  case Opcode::Ping:
    return Response::ok("pong");

  case Opcode::Pack: {
    if (Req.Args.size() != 2)
      return BadArgc(2);
    std::vector<uint8_t> Jar;
    if (!readFileBytes(Req.Args[0], Jar))
      return Response::fail(Status::Failed,
                            "cannot read '" + Req.Args[0] + "'");
    auto Entries = readZip(Jar, Config.RequestLimits);
    if (!Entries)
      return Response::fail(Entries.takeError());
    std::vector<NamedClass> Classes;
    for (ZipEntry &E : *Entries)
      if (isClassName(E.Name))
        Classes.push_back(std::move(E));
    PackOptions Options;
    Options.Shards = 0; // autotune from class count
    Options.Threads = 1; // parallelism comes from concurrent requests
    Options.RandomAccessIndex = true;
    auto Packed = packClassBytes(Classes, Options);
    if (!Packed)
      return Response::fail(Packed.takeError());
    if (!writeFileBytes(Req.Args[1], Packed->Archive))
      return Response::fail(Status::Failed,
                            "cannot write '" + Req.Args[1] + "'");
    return Response::ok("packed " + std::to_string(Packed->ClassCount) +
                        " classes into " +
                        std::to_string(Packed->Archive.size()) + " bytes");
  }

  case Opcode::Unpack: {
    if (Req.Args.size() != 2)
      return BadArgc(2);
    std::vector<uint8_t> Archive;
    if (!readFileBytes(Req.Args[0], Archive))
      return Response::fail(Status::Failed,
                            "cannot read '" + Req.Args[0] + "'");
    UnpackOptions Options;
    Options.Threads = 1;
    Options.Limits = Config.RequestLimits;
    auto Classes = unpackArchive(Archive, Options);
    if (!Classes)
      return Response::fail(Classes.takeError());
    std::vector<uint8_t> Jar = writeZip(*Classes, ZipMethod::Deflated);
    if (!writeFileBytes(Req.Args[1], Jar))
      return Response::fail(Status::Failed,
                            "cannot write '" + Req.Args[1] + "'");
    return Response::ok("unpacked " + std::to_string(Classes->size()) +
                        " classes into " + std::to_string(Jar.size()) +
                        " bytes");
  }

  case Opcode::UnpackClass: {
    if (Req.Args.size() != 2)
      return BadArgc(2);
    auto Arch = Cache->get(Req.Args[0]);
    if (!Arch)
      return Response::fail(Arch.takeError());
    auto Bytes = (*Arch)->Reader.unpackClassBytes(Req.Args[1]);
    if (!Bytes)
      return Response::fail(Bytes.takeError());
    return Response::okBytes(std::move(*Bytes));
  }

  case Opcode::Stat: {
    if (Req.Args.size() != 1)
      return BadArgc(1);
    std::vector<uint8_t> Archive;
    if (!readFileBytes(Req.Args[0], Archive))
      return Response::fail(Status::Failed,
                            "cannot read '" + Req.Args[0] + "'");
    auto Stats = statPackedArchive(Archive, Config.RequestLimits);
    if (!Stats)
      return Response::fail(Stats.takeError());
    std::string Body;
    Body += "version " + std::to_string(Stats->Version) + "\n";
    Body += "shards " + std::to_string(Stats->Shards) + "\n";
    Body += "archive_bytes " + std::to_string(Stats->ArchiveBytes) + "\n";
    Body += "index_bytes " + std::to_string(Stats->IndexBytes) + "\n";
    Body += "indexed_classes " + std::to_string(Stats->IndexedClasses) +
            "\n";
    Body += "dictionary_bytes " + std::to_string(Stats->DictionaryBytes) +
            "\n";
    return Response::ok(std::move(Body));
  }

  case Opcode::Verify: {
    if (Req.Args.size() != 1)
      return BadArgc(1);
    std::vector<analysis::Diagnostic> Diags;
    auto Parsed = loadAndParse(Req.Args[0], Config.RequestLimits, Diags);
    if (!Parsed)
      return Response::fail(Parsed.takeError());
    size_t NumDiags = Diags.size();
    for (const std::vector<analysis::Diagnostic> &D : verifyClassSet(*Parsed))
      NumDiags += D.size();
    return Response::ok("verified " +
                        std::to_string(Parsed->size() + Diags.size()) +
                        " classes, " + std::to_string(NumDiags) +
                        " diagnostics");
  }

  case Opcode::Lint: {
    if (Req.Args.size() != 1)
      return BadArgc(1);
    std::vector<analysis::Diagnostic> Diags;
    auto Parsed = loadAndParse(Req.Args[0], Config.RequestLimits, Diags);
    if (!Parsed)
      return Response::fail(Parsed.takeError());
    analysis::ArchiveAnalysisReport R = analysis::analyzeArchive(*Parsed);
    std::string Body;
    Body += "classes " + std::to_string(R.ClassesAnalyzed) + "\n";
    Body += "diagnostics " + std::to_string(Diags.size() + R.Diags.size()) +
            "\n";
    Body += "refs_checked " + std::to_string(R.RefsChecked) + "\n";
    Body += "refs_resolved " + std::to_string(R.RefsResolved) + "\n";
    Body += "dead_members " + std::to_string(R.DeadMembers.size()) + "\n";
    Body += "dead_pool_entries " + std::to_string(R.DeadPoolEntries) + "\n";
    return Response::ok(std::move(Body));
  }

  case Opcode::Metrics:
    if (!Req.Args.empty())
      return BadArgc(0);
    return Response::ok(Metrics.render(Cache->stats()));

  case Opcode::CacheFlush:
    if (!Req.Args.empty())
      return BadArgc(0);
    Cache->flush();
    return Response::ok("flushed");
  }
  return Response::fail(Status::BadRequest, "unhandled opcode");
}

//===----------------------------------------------------------------------===//
// Connection sessions
//===----------------------------------------------------------------------===//

/// One live connection: a reader thread parsing frames and dispatching
/// to the pool, and a writer thread flushing responses in order.
struct Server::Session {
  int Fd = -1;
  std::thread Reader;
  std::thread Writer;
  std::atomic<bool> Done{false};

  // Responses queue between reader (producer) and writer (consumer).
  // Bounded by MaxInFlightPerConn: the reader blocks before parsing
  // frame N+cap until frame N's response is flushed.
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<std::future<std::vector<uint8_t>>> Queue;
  bool ReaderClosed = false;
};

void Server::runSession(Session &S) {
  Metrics.noteConnection();

  if (Config.ReadTimeoutSec > 0) {
    struct timeval Tv = {};
    Tv.tv_sec = Config.ReadTimeoutSec;
    ::setsockopt(S.Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }

  // Enqueues a ready-made response (protocol rejects, shutdown notes)
  // without a pool round-trip.
  auto EnqueueImmediate = [&S](Response R) {
    std::promise<std::vector<uint8_t>> P;
    P.set_value(frame(encodeResponse(R)));
    std::lock_guard<std::mutex> Lock(S.QueueMu);
    S.Queue.push_back(P.get_future());
    S.QueueCv.notify_all();
  };

  bool CloseAfterFlush = false;
  while (!CloseAfterFlush) {
    // Backpressure: wait until the in-flight window has room.
    {
      std::unique_lock<std::mutex> Lock(S.QueueMu);
      S.QueueCv.wait(Lock, [this, &S] {
        return S.Queue.size() < Config.MaxInFlightPerConn;
      });
    }

    uint8_t Header[4];
    ssize_t R = readFull(S.Fd, Header, 4);
    if (R <= 0) {
      // Clean EOF at a frame boundary, timeout, or error — and a
      // partial header is a truncated frame either way: close.
      if (R < 0)
        Metrics.noteProtocolError();
      break;
    }
    uint32_t Len = (static_cast<uint32_t>(Header[0]) << 24) |
                   (static_cast<uint32_t>(Header[1]) << 16) |
                   (static_cast<uint32_t>(Header[2]) << 8) |
                   static_cast<uint32_t>(Header[3]);
    if (auto E = validateFrameLength(Len, Config.MaxRequestBytes)) {
      // Unresyncable framing error: answer, then drop the connection.
      Metrics.noteProtocolError();
      EnqueueImmediate(Response::fail(E));
      break;
    }
    std::vector<uint8_t> Payload(Len);
    if (Len > 0 && readFull(S.Fd, Payload.data(), Len) <= 0) {
      Metrics.noteProtocolError();
      break;
    }

    auto Req = parseRequest(Payload, Config.Limits);
    if (!Req) {
      // Payload-level reject: the frame boundary held, so the
      // connection stays usable for the next request.
      Metrics.noteProtocolError();
      EnqueueImmediate(Response::fail(Req.takeError()));
      continue;
    }
    if (Stopping.load(std::memory_order_relaxed)) {
      EnqueueImmediate(Response::fail(Status::ShuttingDown,
                                      "server is draining"));
      break;
    }

    Request Parsed = std::move(*Req);
    uint64_t BytesIn = 4 + static_cast<uint64_t>(Len);
    auto Future = Pool->submit(
        [this, Parsed = std::move(Parsed), BytesIn]() {
          auto T0 = std::chrono::steady_clock::now();
          Response R = handle(Parsed);
          std::vector<uint8_t> Framed = frame(encodeResponse(R));
          double Us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
          Metrics.noteRequest(Parsed.Op, R.St, BytesIn, Framed.size(), Us);
          return Framed;
        });
    {
      std::lock_guard<std::mutex> Lock(S.QueueMu);
      S.Queue.push_back(std::move(Future));
      S.QueueCv.notify_all();
    }
  }

  {
    std::lock_guard<std::mutex> Lock(S.QueueMu);
    S.ReaderClosed = true;
    S.QueueCv.notify_all();
  }
}

Server::Server(const ServerConfig &C) : Config(C) {
  Cache.reset(new ArchiveCache(Config.CacheBytes, Config.CacheLimits));
  Pool.reset(new ThreadPool(Config.Threads));
}

Error Server::bindListeners() {
  // Unix-domain listener.
  UnixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (UnixFd < 0)
    return errnoError("socket(AF_UNIX)");
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  if (Config.UnixSocketPath.size() >= sizeof(Addr.sun_path))
    return Error::failure("unix socket path too long: '" +
                          Config.UnixSocketPath + "'");
  std::strncpy(Addr.sun_path, Config.UnixSocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ::unlink(Config.UnixSocketPath.c_str());
  if (::bind(UnixFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return errnoError("bind('" + Config.UnixSocketPath + "')");
  if (::listen(UnixFd, 64) < 0)
    return errnoError("listen('" + Config.UnixSocketPath + "')");

  // Optional TCP loopback listener.
  if (Config.TcpPort >= 0) {
    TcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (TcpFd < 0)
      return errnoError("socket(AF_INET)");
    int One = 1;
    ::setsockopt(TcpFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in In = {};
    In.sin_family = AF_INET;
    In.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    In.sin_port = htons(static_cast<uint16_t>(Config.TcpPort));
    if (::bind(TcpFd, reinterpret_cast<sockaddr *>(&In), sizeof(In)) < 0)
      return errnoError("bind(loopback:" + std::to_string(Config.TcpPort) +
                        ")");
    if (::listen(TcpFd, 64) < 0)
      return errnoError("listen(tcp)");
    sockaddr_in Bound = {};
    socklen_t BoundLen = sizeof(Bound);
    if (::getsockname(TcpFd, reinterpret_cast<sockaddr *>(&Bound),
                      &BoundLen) == 0)
      BoundTcpPort = ntohs(Bound.sin_port);
  }

  if (::pipe(WakePipe) < 0)
    return errnoError("pipe");
  return Error::success();
}

Expected<std::unique_ptr<Server>> Server::start(const ServerConfig &Config) {
  if (Config.UnixSocketPath.empty())
    return Error::failure("cjpackd needs a unix socket path");
  if (Config.MaxInFlightPerConn == 0)
    return Error::failure("MaxInFlightPerConn must be at least 1");
  std::unique_ptr<Server> S(new Server(Config));
  if (auto E = S->bindListeners())
    return E;
  S->AcceptThread = std::thread([Srv = S.get()] { Srv->acceptLoop(); });
  return S;
}

void Server::reapFinishedSessions() {
  std::lock_guard<std::mutex> Lock(SessionsMu);
  for (auto It = Sessions.begin(); It != Sessions.end();) {
    Session &S = **It;
    if (S.Done.load(std::memory_order_acquire)) {
      if (S.Reader.joinable())
        S.Reader.join();
      if (S.Writer.joinable())
        S.Writer.join();
      ::close(S.Fd);
      It = Sessions.erase(It);
    } else {
      ++It;
    }
  }
}

void Server::acceptLoop() {
  while (!Stopping.load(std::memory_order_relaxed)) {
    pollfd Fds[3];
    nfds_t N = 0;
    Fds[N++] = {WakePipe[0], POLLIN, 0};
    Fds[N++] = {UnixFd, POLLIN, 0};
    if (TcpFd >= 0)
      Fds[N++] = {TcpFd, POLLIN, 0};
    if (::poll(Fds, N, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Fds[0].revents) // self-pipe: requestStop() woke us
      break;

    for (nfds_t I = 1; I < N; ++I) {
      if (!(Fds[I].revents & POLLIN))
        continue;
      int Conn = ::accept(Fds[I].fd, nullptr, nullptr);
      if (Conn < 0)
        continue;
      if (Stopping.load(std::memory_order_relaxed)) {
        ::close(Conn);
        continue;
      }
      auto Sess = std::make_unique<Session>();
      Session *SP = Sess.get();
      SP->Fd = Conn;
      SP->Writer = std::thread([SP] {
        // Flush responses in request order; exit once the reader has
        // closed and the queue is drained.
        for (;;) {
          std::future<std::vector<uint8_t>> F;
          {
            std::unique_lock<std::mutex> Lock(SP->QueueMu);
            SP->QueueCv.wait(Lock, [SP] {
              return !SP->Queue.empty() || SP->ReaderClosed;
            });
            if (SP->Queue.empty())
              break;
            F = std::move(SP->Queue.front());
            SP->Queue.pop_front();
          }
          std::vector<uint8_t> Framed = F.get();
          bool Wrote = writeFull(SP->Fd, Framed);
          SP->QueueCv.notify_all(); // reopen the in-flight window
          if (!Wrote) {
            // Client went away: drain remaining futures without
            // writing so handler side effects still complete.
            for (;;) {
              std::future<std::vector<uint8_t>> G;
              {
                std::unique_lock<std::mutex> Lock(SP->QueueMu);
                SP->QueueCv.wait(Lock, [SP] {
                  return !SP->Queue.empty() || SP->ReaderClosed;
                });
                if (SP->Queue.empty())
                  break;
                G = std::move(SP->Queue.front());
                SP->Queue.pop_front();
              }
              G.get();
              SP->QueueCv.notify_all();
            }
            break;
          }
        }
        // The fd is closed by reap/wait after both threads join, so
        // requestStop() can never shutdown() a recycled descriptor.
        ::shutdown(SP->Fd, SHUT_RDWR);
        SP->Done.store(true, std::memory_order_release);
      });
      SP->Reader = std::thread([this, SP] { runSession(*SP); });
      {
        std::lock_guard<std::mutex> Lock(SessionsMu);
        Sessions.push_back(std::move(Sess));
      }
      reapFinishedSessions();
    }
  }

  // Close the listeners here, in the only thread that polls them, so a
  // post-shutdown connect is refused instead of parking in the backlog.
  ::close(UnixFd);
  UnixFd = -1;
  if (TcpFd >= 0) {
    ::close(TcpFd);
    TcpFd = -1;
  }
  ::unlink(Config.UnixSocketPath.c_str());
}

void Server::requestStop() {
  if (Stopping.exchange(true))
    return;
  // Wake the accept loop, then half-close every live connection's read
  // side: readers see EOF at the next frame boundary, in-flight
  // requests finish, writers flush, sessions drain.
  char B = 1;
  [[maybe_unused]] ssize_t W = ::write(WakePipe[1], &B, 1);
  std::lock_guard<std::mutex> Lock(SessionsMu);
  for (auto &S : Sessions)
    if (!S->Done.load(std::memory_order_acquire))
      ::shutdown(S->Fd, SHUT_RD);
}

void Server::wait() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  std::list<std::unique_ptr<Session>> Drained;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    Drained.swap(Sessions);
  }
  for (auto &S : Drained) {
    if (S->Reader.joinable())
      S->Reader.join();
    if (S->Writer.joinable())
      S->Writer.join();
    ::close(S->Fd);
  }
}

Server::~Server() {
  requestStop();
  wait();
  if (UnixFd >= 0)
    ::close(UnixFd);
  if (TcpFd >= 0)
    ::close(TcpFd);
  if (WakePipe[0] >= 0)
    ::close(WakePipe[0]);
  if (WakePipe[1] >= 0)
    ::close(WakePipe[1]);
  ::unlink(Config.UnixSocketPath.c_str());
}

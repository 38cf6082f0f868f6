//===- test_serve.cpp - cjpackd server, protocol, and cache ---------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving stack end to end: protocol encode/parse round-trips and
// the typed rejection of hostile payloads, the hot-archive LRU cache
// (hits, capacity eviction, staleness invalidation), and a real server
// on a unix-domain socket driven through the Client — including the
// hostile-client suite (truncated frames, oversized length prefixes,
// garbage opcodes, mid-request disconnects) that the daemon must
// survive with typed errors and no cross-request interference.
//
//===----------------------------------------------------------------------===//

#include "serve/ArchiveCache.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/ArchiveReader.h"
#include "pack/Packer.h"
#include "zip/Jar.h"
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>

using namespace cjpack;
using namespace cjpack::serve;

namespace {

std::vector<NamedClass> serveCorpus(uint64_t Seed = 41,
                                    unsigned NumClasses = 24) {
  CorpusSpec Spec;
  Spec.Name = "serve";
  Spec.Seed = Seed;
  Spec.NumClasses = NumClasses;
  Spec.NumPackages = 3;
  return generateCorpus(Spec);
}

std::vector<uint8_t> packIndexed(const std::vector<NamedClass> &Classes,
                                 unsigned Shards = 2) {
  PackOptions Options;
  Options.Shards = Shards;
  Options.RandomAccessIndex = true;
  auto Packed = packClassBytes(Classes, Options);
  EXPECT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  return Packed->Archive;
}

bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(Data.data()),
            static_cast<std::streamsize>(Data.size()));
  return static_cast<bool>(Out);
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// A started server plus its socket path; stops on destruction.
struct TestServer {
  std::string SocketPath;
  std::unique_ptr<Server> Srv;

  TestServer() = default;
  TestServer(TestServer &&) = default;
  TestServer &operator=(TestServer &&) = default;

  static TestServer start(ServerConfig Config = {},
                          const std::string &Tag = "d") {
    TestServer T;
    T.SocketPath = tempPath("cjpackd_test_" + Tag + ".sock");
    Config.UnixSocketPath = T.SocketPath;
    if (Config.Threads == 0)
      Config.Threads = 4;
    auto S = Server::start(Config);
    EXPECT_TRUE(static_cast<bool>(S)) << S.message();
    if (S)
      T.Srv = std::move(*S);
    return T;
  }

  Client connect() {
    auto C = Client::connectUnix(SocketPath);
    EXPECT_TRUE(static_cast<bool>(C)) << C.message();
    return std::move(*C);
  }

  ~TestServer() {
    if (Srv) {
      Srv->requestStop();
      Srv->wait();
    }
  }
};

/// Fetches one metric line's value from a metrics response body.
long metricValue(const std::string &Body, const std::string &Key) {
  size_t Pos = 0;
  while (Pos < Body.size()) {
    size_t End = Body.find('\n', Pos);
    if (End == std::string::npos)
      End = Body.size();
    std::string Line = Body.substr(Pos, End - Pos);
    if (Line.rfind(Key + " ", 0) == 0)
      return std::atol(Line.c_str() + Key.size() + 1);
    Pos = End + 1;
  }
  return -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, RequestRoundTrip) {
  Request Req;
  Req.Op = Opcode::UnpackClass;
  Req.Args = {"/tmp/app.cjp", "com/example/Main"};
  auto Parsed = parseRequest(encodeRequest(Req));
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(Parsed->Op, Opcode::UnpackClass);
  EXPECT_EQ(Parsed->Args, Req.Args);

  // No-arg and empty-string-arg requests survive too.
  Request Ping;
  Ping.Op = Opcode::Ping;
  auto P2 = parseRequest(encodeRequest(Ping));
  ASSERT_TRUE(static_cast<bool>(P2));
  EXPECT_TRUE(P2->Args.empty());

  Request Empty;
  Empty.Op = Opcode::Stat;
  Empty.Args = {""};
  auto P3 = parseRequest(encodeRequest(Empty));
  ASSERT_TRUE(static_cast<bool>(P3));
  ASSERT_EQ(P3->Args.size(), 1u);
  EXPECT_TRUE(P3->Args[0].empty());
}

TEST(ServeProtocol, ResponseRoundTrip) {
  Response R = Response::fail(Status::LimitExceeded, "too big");
  auto Parsed = parseResponse(encodeResponse(R));
  ASSERT_TRUE(static_cast<bool>(Parsed));
  EXPECT_EQ(Parsed->St, Status::LimitExceeded);
  EXPECT_EQ(Parsed->text(), "too big");
}

TEST(ServeProtocol, HostilePayloadsRejectTyped) {
  // Empty and one-byte payloads: shorter than the fixed header.
  EXPECT_EQ(parseRequest({}).code(), ErrorCode::Truncated);
  uint8_t One[1] = {0};
  EXPECT_EQ(parseRequest(std::span<const uint8_t>(One, 1)).code(),
            ErrorCode::Truncated);

  // Unknown opcode.
  uint8_t BadOp[2] = {0xEE, 0};
  EXPECT_EQ(parseRequest(std::span<const uint8_t>(BadOp, 2)).code(),
            ErrorCode::Corrupt);

  // Argument count over the cap.
  uint8_t ManyArgs[2] = {0, 255};
  EXPECT_EQ(
      parseRequest(std::span<const uint8_t>(ManyArgs, 2)).code(),
      ErrorCode::LimitExceeded);

  // Argument length promising more bytes than the payload holds.
  uint8_t Overhang[3] = {0, 1, 50};
  EXPECT_EQ(
      parseRequest(std::span<const uint8_t>(Overhang, 3)).code(),
      ErrorCode::Truncated);

  // Argument length over the per-argument cap.
  {
    Request R;
    R.Op = Opcode::Stat;
    R.Args = {std::string(100, 'x')};
    std::vector<uint8_t> Enc = encodeRequest(R);
    ProtocolLimits Tight;
    Tight.MaxArgBytes = 10;
    EXPECT_EQ(parseRequest(Enc, Tight).code(),
              ErrorCode::LimitExceeded);
  }

  // Trailing garbage after the last argument.
  {
    Request R;
    R.Op = Opcode::Ping;
    std::vector<uint8_t> Enc = encodeRequest(R);
    Enc.push_back(0x42);
    EXPECT_EQ(parseRequest(Enc).code(), ErrorCode::Corrupt);
  }

  // Response side: empty payload and unknown status byte.
  EXPECT_EQ(parseResponse({}).code(), ErrorCode::Truncated);
  uint8_t BadSt[1] = {0x77};
  EXPECT_EQ(parseResponse(std::span<const uint8_t>(BadSt, 1)).code(),
            ErrorCode::Corrupt);

  // Frame length validation.
  EXPECT_FALSE(static_cast<bool>(validateFrameLength(100, 1000)));
  EXPECT_TRUE(static_cast<bool>(validateFrameLength(0x7FFFFFFF, 1000)));
}

TEST(ServeProtocol, OpcodeNamesRoundTrip) {
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    const Opcode *Found = findOpcodeByName(opcodeName(Op));
    ASSERT_NE(Found, nullptr) << opcodeName(Op);
    EXPECT_EQ(*Found, Op);
  }
  EXPECT_EQ(findOpcodeByName("no-such-op"), nullptr);
}

//===----------------------------------------------------------------------===//
// ArchiveCache
//===----------------------------------------------------------------------===//

TEST(ArchiveCacheTest, HitMissAndByteIdenticalResults) {
  auto Classes = serveCorpus();
  std::string Path = tempPath("cache_basic.cjp");
  ASSERT_TRUE(writeFileBytes(Path, packIndexed(Classes)));

  ArchiveCache Cache(64u << 20);
  auto A1 = Cache.get(Path);
  ASSERT_TRUE(static_cast<bool>(A1)) << A1.message();
  auto A2 = Cache.get(Path);
  ASSERT_TRUE(static_cast<bool>(A2));
  EXPECT_EQ(A1->get(), A2->get()) << "second get must share the entry";

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 1u);

  // A class through the cached reader matches a fresh in-process one.
  std::string Name = (*A1)->Reader.classNames().front();
  auto Hot = (*A1)->Reader.unpackClass(Name);
  ASSERT_TRUE(static_cast<bool>(Hot)) << Hot.message();
  // The reader borrows its bytes: keep them alive while it decodes.
  std::vector<uint8_t> Archive = packIndexed(Classes);
  auto Fresh = PackedArchiveReader::open(Archive);
  ASSERT_TRUE(static_cast<bool>(Fresh));
  auto Cold = Fresh->unpackClass(Name);
  ASSERT_TRUE(static_cast<bool>(Cold));
  EXPECT_EQ(writeClassFile(*Hot), writeClassFile(*Cold));

  std::remove(Path.c_str());
}

TEST(ArchiveCacheTest, CapacityEvictsLeastRecentlyUsed) {
  auto ClassesA = serveCorpus(41);
  auto ClassesB = serveCorpus(43);
  std::string PathA = tempPath("cache_evict_a.cjp");
  std::string PathB = tempPath("cache_evict_b.cjp");
  std::vector<uint8_t> ArchA = packIndexed(ClassesA);
  ASSERT_TRUE(writeFileBytes(PathA, ArchA));
  ASSERT_TRUE(writeFileBytes(PathB, packIndexed(ClassesB)));

  // Capacity fits one archive, not two.
  ArchiveCache Cache(ArchA.size() + ArchA.size() / 2);
  ASSERT_TRUE(static_cast<bool>(Cache.get(PathA)));
  ASSERT_TRUE(static_cast<bool>(Cache.get(PathB))); // evicts A
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 1u);
  ASSERT_TRUE(static_cast<bool>(Cache.get(PathA))); // miss again
  EXPECT_EQ(Cache.stats().Misses, 3u);
  EXPECT_EQ(Cache.stats().Hits, 0u);

  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(ArchiveCacheTest, RewrittenFileInvalidatesEntry) {
  auto ClassesA = serveCorpus(41);
  auto ClassesB = serveCorpus(47, 8);
  std::string Path = tempPath("cache_stale.cjp");
  ASSERT_TRUE(writeFileBytes(Path, packIndexed(ClassesA)));

  ArchiveCache Cache(64u << 20);
  auto A1 = Cache.get(Path);
  ASSERT_TRUE(static_cast<bool>(A1));
  size_t CountA = (*A1)->Reader.classCount();

  // Rewrite the file with different contents (different size, so the
  // identity check cannot be fooled by a same-second mtime).
  ASSERT_TRUE(writeFileBytes(Path, packIndexed(ClassesB)));
  auto A2 = Cache.get(Path);
  ASSERT_TRUE(static_cast<bool>(A2)) << A2.message();
  EXPECT_NE((*A2)->Reader.classCount(), CountA);
  EXPECT_EQ(Cache.stats().Misses, 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);

  // The evicted entry's shared_ptr still works (mapping stays valid).
  EXPECT_EQ((*A1)->Reader.classCount(), CountA);

  std::remove(Path.c_str());
}

TEST(ArchiveCacheTest, MissingAndGarbageFilesFailTyped) {
  ArchiveCache Cache(1u << 20);
  EXPECT_FALSE(static_cast<bool>(Cache.get(tempPath("no_such.cjp"))));

  std::string Path = tempPath("cache_garbage.cjp");
  ASSERT_TRUE(writeFileBytes(Path, {0xDE, 0xAD, 0xBE, 0xEF, 0x01}));
  EXPECT_FALSE(static_cast<bool>(Cache.get(Path)));
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.OpenFailures, 2u);
  EXPECT_EQ(S.Entries, 0u) << "failures must never be cached";
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Server end-to-end over a unix socket
//===----------------------------------------------------------------------===//

TEST(ServeServer, PingAndUnknownCommand) {
  TestServer T = TestServer::start({}, "ping");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();
  auto R = C.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(R)) << R.message();
  EXPECT_EQ(R->St, Status::Ok);
  EXPECT_EQ(R->text(), "pong");

  // Wrong argument count: typed BadRequest, connection stays usable.
  auto Bad = C.call(Opcode::Stat, {"a", "b", "c"});
  ASSERT_TRUE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad->St, Status::BadRequest);
  auto Again = C.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_EQ(Again->St, Status::Ok);
}

TEST(ServeServer, PackStatUnpackClassFlowWithCacheHit) {
  TestServer T = TestServer::start({}, "flow");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();

  auto Classes = serveCorpus();
  std::string JarPath = tempPath("serve_flow.jar");
  std::string CjpPath = tempPath("serve_flow.cjp");
  ASSERT_TRUE(writeFileBytes(JarPath, buildJar(Classes)));

  auto Packed = C.call(Opcode::Pack, {JarPath, CjpPath});
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  ASSERT_EQ(Packed->St, Status::Ok) << Packed->text();

  auto Stat = C.call(Opcode::Stat, {CjpPath});
  ASSERT_TRUE(static_cast<bool>(Stat));
  ASSERT_EQ(Stat->St, Status::Ok) << Stat->text();
  EXPECT_EQ(metricValue(Stat->text(), "version"), 3);
  EXPECT_EQ(metricValue(Stat->text(), "indexed_classes"),
            static_cast<long>(Classes.size()));

  // Same class twice: miss then hit, byte-identical both times and
  // equal to what an in-process reader produces.
  std::string Name = Classes.front().Name;
  Name = Name.substr(0, Name.size() - 6); // drop ".class"
  auto F1 = C.call(Opcode::UnpackClass, {CjpPath, Name});
  ASSERT_TRUE(static_cast<bool>(F1));
  ASSERT_EQ(F1->St, Status::Ok) << F1->text();
  auto F2 = C.call(Opcode::UnpackClass, {CjpPath, Name});
  ASSERT_TRUE(static_cast<bool>(F2));
  ASSERT_EQ(F2->St, Status::Ok);
  EXPECT_EQ(F1->Body, F2->Body);

  // The served bytes match an in-process reader over the same archive
  // (the canonical form — input bytes are only preserved for canonical
  // classfiles).
  {
    std::ifstream In(CjpPath, std::ios::binary);
    std::vector<uint8_t> Archive((std::istreambuf_iterator<char>(In)),
                                 std::istreambuf_iterator<char>());
    auto Ref = PackedArchiveReader::open(Archive);
    ASSERT_TRUE(static_cast<bool>(Ref)) << Ref.message();
    auto CF = Ref->unpackClass(Name);
    ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
    EXPECT_EQ(F1->Body, writeClassFile(*CF));
  }

  auto M = C.call(Opcode::Metrics);
  ASSERT_TRUE(static_cast<bool>(M));
  ASSERT_EQ(M->St, Status::Ok);
  EXPECT_EQ(metricValue(M->text(), "cache_hits"), 1);
  EXPECT_EQ(metricValue(M->text(), "cache_misses"), 1);
  EXPECT_GE(metricValue(M->text(), "requests"), 4);
  EXPECT_GE(metricValue(M->text(), "latency_samples"), 4);

  // Verify and lint accept the archive too.
  auto V = C.call(Opcode::Verify, {CjpPath});
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_EQ(V->St, Status::Ok) << V->text();
  auto L = C.call(Opcode::Lint, {CjpPath});
  ASSERT_TRUE(static_cast<bool>(L));
  EXPECT_EQ(L->St, Status::Ok) << L->text();
  EXPECT_EQ(metricValue(L->text(), "classes"),
            static_cast<long>(Classes.size()));

  // Flush drops the entry; the next fetch misses again.
  auto Fl = C.call(Opcode::CacheFlush);
  ASSERT_TRUE(static_cast<bool>(Fl));
  EXPECT_EQ(Fl->St, Status::Ok);
  auto F3 = C.call(Opcode::UnpackClass, {CjpPath, Name});
  ASSERT_TRUE(static_cast<bool>(F3));
  EXPECT_EQ(F3->St, Status::Ok);
  EXPECT_EQ(F3->Body, F1->Body);
  auto M2 = C.call(Opcode::Metrics);
  ASSERT_TRUE(static_cast<bool>(M2));
  EXPECT_EQ(metricValue(M2->text(), "cache_misses"), 2);

  std::remove(JarPath.c_str());
  std::remove(CjpPath.c_str());
}

TEST(ServeServer, UnpackRoundTripOverSocket) {
  TestServer T = TestServer::start({}, "unpack");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();

  auto Classes = serveCorpus();
  std::string CjpPath = tempPath("serve_unpack.cjp");
  std::string OutJar = tempPath("serve_unpack_out.jar");
  ASSERT_TRUE(writeFileBytes(CjpPath, packIndexed(Classes)));

  auto R = C.call(Opcode::Unpack, {CjpPath, OutJar});
  ASSERT_TRUE(static_cast<bool>(R));
  ASSERT_EQ(R->St, Status::Ok) << R->text();

  // The restored jar holds every class byte-identically.
  std::ifstream In(OutJar, std::ios::binary);
  std::vector<uint8_t> Jar((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
  auto Entries = readZip(Jar);
  ASSERT_TRUE(static_cast<bool>(Entries)) << Entries.message();
  ASSERT_EQ(Entries->size(), Classes.size());

  std::remove(CjpPath.c_str());
  std::remove(OutJar.c_str());
}

TEST(ServeServer, FileErrorsComeBackTyped) {
  TestServer T = TestServer::start({}, "errs");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();

  auto Missing = C.call(Opcode::Stat, {tempPath("nope.cjp")});
  ASSERT_TRUE(static_cast<bool>(Missing));
  EXPECT_EQ(Missing->St, Status::Failed);

  std::string Garbage = tempPath("serve_garbage.cjp");
  ASSERT_TRUE(writeFileBytes(Garbage, {'C', 'J', 'P', 'K', 0x63, 0, 0}));
  auto Bad = C.call(Opcode::Stat, {Garbage});
  ASSERT_TRUE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad->St, Status::VersionMismatch) << Bad->text();

  auto BadClass = C.call(Opcode::UnpackClass, {Garbage, "com/x/Y"});
  ASSERT_TRUE(static_cast<bool>(BadClass));
  EXPECT_NE(BadClass->St, Status::Ok);

  std::remove(Garbage.c_str());
}

TEST(ServeServer, BudgetExhaustionDoesNotPoisonLaterRequests) {
  // A request-limits budget small enough that unpack (fresh budget per
  // request) fails LimitExceeded — and the next request, with its own
  // fresh budget, succeeds.
  ServerConfig Config;
  Config.RequestLimits.MaxInflateBytes = 16; // absurdly tight
  TestServer T = TestServer::start(Config, "budget");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();

  auto Classes = serveCorpus();
  std::string CjpPath = tempPath("serve_budget.cjp");
  std::string OutJar = tempPath("serve_budget_out.jar");
  ASSERT_TRUE(writeFileBytes(CjpPath, packIndexed(Classes)));

  auto R1 = C.call(Opcode::Unpack, {CjpPath, OutJar});
  ASSERT_TRUE(static_cast<bool>(R1));
  EXPECT_EQ(R1->St, Status::LimitExceeded) << R1->text();

  // Cached readers run under CacheLimits (default: generous), so the
  // same archive still serves single classes.
  std::string Name = (*PackedArchiveReader::open(packIndexed(Classes)))
                         .classNames()
                         .front();
  auto R2 = C.call(Opcode::UnpackClass, {CjpPath, Name});
  ASSERT_TRUE(static_cast<bool>(R2));
  EXPECT_EQ(R2->St, Status::Ok) << R2->text();

  // And ping still works: no cross-request poisoning.
  auto R3 = C.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(R3));
  EXPECT_EQ(R3->St, Status::Ok);

  std::remove(CjpPath.c_str());
  std::remove(OutJar.c_str());
}

// verify and lint load and parse through the shared class-set loader,
// so a member that does not parse is one diagnostic from both, exactly
// as packtool reports it.
TEST(ServeServer, VerifyAndLintCountUnparseableClasses) {
  TestServer T = TestServer::start({}, "unparseable");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();

  auto Classes = serveCorpus(41, 6);
  NamedClass Broken = Classes.front();
  Broken.Name = "com/x/Broken.class";
  Broken.Data.resize(Broken.Data.size() / 2);
  Classes.push_back(std::move(Broken));
  std::string JarPath = tempPath("serve_unparseable.jar");
  ASSERT_TRUE(writeFileBytes(JarPath, buildJar(Classes)));

  auto L = C.call(Opcode::Lint, {JarPath});
  ASSERT_TRUE(static_cast<bool>(L));
  ASSERT_EQ(L->St, Status::Ok) << L->text();
  EXPECT_EQ(metricValue(L->text(), "classes"), 6);
  EXPECT_EQ(metricValue(L->text(), "diagnostics"), 1);

  auto V = C.call(Opcode::Verify, {JarPath});
  ASSERT_TRUE(static_cast<bool>(V));
  ASSERT_EQ(V->St, Status::Ok) << V->text();
  EXPECT_EQ(V->text(), "verified 7 classes, 1 diagnostics");

  std::remove(JarPath.c_str());
}

//===----------------------------------------------------------------------===//
// Hostile clients
//===----------------------------------------------------------------------===//

TEST(ServeHostile, OversizedLengthPrefixClosesAfterTypedError) {
  TestServer T = TestServer::start({}, "oversize");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();

  // Declare a 2 GiB request frame.
  ASSERT_TRUE(C.sendRaw({0x7F, 0xFF, 0xFF, 0xFF}));
  auto R = C.readResponse();
  ASSERT_TRUE(static_cast<bool>(R)) << R.message();
  EXPECT_EQ(R->St, Status::LimitExceeded);
  // The connection is then closed: the next read fails cleanly.
  EXPECT_FALSE(static_cast<bool>(C.readResponse()));

  // The server survives and accepts new connections.
  Client C2 = T.connect();
  auto Ping = C2.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(Ping));
  EXPECT_EQ(Ping->St, Status::Ok);
}

TEST(ServeHostile, GarbageOpcodeLeavesConnectionUsable) {
  TestServer T = TestServer::start({}, "garbage");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();

  // A well-framed payload with an unknown opcode.
  std::vector<uint8_t> Payload = {0xEE, 0x00};
  ASSERT_TRUE(C.sendRaw(frame(Payload)));
  auto R = C.readResponse();
  ASSERT_TRUE(static_cast<bool>(R)) << R.message();
  EXPECT_EQ(R->St, Status::Corrupt);

  // Same connection, valid request: still served.
  auto Ping = C.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(Ping));
  EXPECT_EQ(Ping->St, Status::Ok);

  // Malformed argument table (truncated argument) on the same
  // connection: typed reject, still usable.
  std::vector<uint8_t> Truncated = {0x04, 0x01, 0x30};
  ASSERT_TRUE(C.sendRaw(frame(Truncated)));
  auto R2 = C.readResponse();
  ASSERT_TRUE(static_cast<bool>(R2));
  EXPECT_EQ(R2->St, Status::Truncated);
  auto Ping2 = C.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(Ping2));
  EXPECT_EQ(Ping2->St, Status::Ok);
}

TEST(ServeHostile, MidRequestDisconnectsDoNotKillTheServer) {
  TestServer T = TestServer::start({}, "disco");
  ASSERT_TRUE(T.Srv);

  {
    // Half a frame header, then hang up.
    Client C = T.connect();
    ASSERT_TRUE(C.sendRaw({0x00, 0x00}));
  }
  {
    // A full header promising 100 bytes, then hang up mid-payload.
    Client C = T.connect();
    ASSERT_TRUE(C.sendRaw({0x00, 0x00, 0x00, 0x64, 0x01, 0x02}));
  }
  {
    // A valid request, but disconnect without reading the response.
    Client C = T.connect();
    Request Req;
    Req.Op = Opcode::Ping;
    ASSERT_TRUE(C.sendRaw(frame(encodeRequest(Req))));
  }

  // After all that abuse, a polite client is served normally.
  Client C = T.connect();
  auto Ping = C.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(Ping)) << Ping.message();
  EXPECT_EQ(Ping->St, Status::Ok);
}

TEST(ServeHostile, ZeroLengthFrameRejectsTyped) {
  TestServer T = TestServer::start({}, "zero");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();
  // Zero-length payload: shorter than the request fixed header.
  ASSERT_TRUE(C.sendRaw({0x00, 0x00, 0x00, 0x00}));
  auto R = C.readResponse();
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->St, Status::Truncated);
  auto Ping = C.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(Ping));
  EXPECT_EQ(Ping->St, Status::Ok);
}

//===----------------------------------------------------------------------===//
// Concurrency and shutdown
//===----------------------------------------------------------------------===//

TEST(ServeServer, ConcurrentClientsShareTheCache) {
  ServerConfig Config;
  Config.Threads = 4;
  TestServer T = TestServer::start(Config, "conc");
  ASSERT_TRUE(T.Srv);

  auto Classes = serveCorpus(41, 32);
  std::string CjpPath = tempPath("serve_conc.cjp");
  std::vector<uint8_t> Archive = packIndexed(Classes, 4);
  ASSERT_TRUE(writeFileBytes(CjpPath, Archive));
  auto Ref = PackedArchiveReader::open(Archive);
  ASSERT_TRUE(static_cast<bool>(Ref));
  std::vector<std::string> Names = Ref->classNames();

  constexpr unsigned NumClients = 4;
  constexpr unsigned PerClient = 32;
  std::atomic<unsigned> Bad{0};
  std::vector<std::thread> Threads;
  for (unsigned K = 0; K < NumClients; ++K) {
    Threads.emplace_back([&, K] {
      auto C = Client::connectUnix(T.SocketPath);
      if (!C) {
        Bad.fetch_add(1);
        return;
      }
      for (unsigned I = 0; I < PerClient; ++I) {
        const std::string &Name = Names[(K * 7 + I) % Names.size()];
        auto R = C->call(Opcode::UnpackClass, {CjpPath, Name});
        if (!R || R->St != Status::Ok || R->Body.empty())
          Bad.fetch_add(1);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Bad.load(), 0u);

  // One miss opened the archive; everything else hit.
  CacheStats S = T.Srv->cache().stats();
  EXPECT_GE(S.Hits, NumClients * PerClient - S.Misses);
  EXPECT_LE(S.Misses, NumClients); // racing first misses at worst
  EXPECT_EQ(T.Srv->metrics().requests(), NumClients * PerClient);

  std::remove(CjpPath.c_str());
}

TEST(ServeServer, GracefulShutdownDrainsInFlight) {
  TestServer T = TestServer::start({}, "drain");
  ASSERT_TRUE(T.Srv);
  Client C = T.connect();
  auto Ping = C.call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(Ping));

  T.Srv->requestStop();
  T.Srv->wait();

  // The listener is gone and the old connection reads EOF.
  EXPECT_FALSE(static_cast<bool>(C.readResponse()));
  EXPECT_FALSE(static_cast<bool>(Client::connectUnix(T.SocketPath)));
  EXPECT_GE(T.Srv->metrics().connections(), 1u);
}

TEST(ServeServer, TcpLoopbackListener) {
  ServerConfig Config;
  Config.TcpPort = 0; // ephemeral
  TestServer T = TestServer::start(Config, "tcp");
  ASSERT_TRUE(T.Srv);
  ASSERT_GT(T.Srv->tcpPort(), 0);
  auto C = Client::connectTcp(T.Srv->tcpPort());
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  auto Ping = C->call(Opcode::Ping);
  ASSERT_TRUE(static_cast<bool>(Ping));
  EXPECT_EQ(Ping->St, Status::Ok);
  EXPECT_EQ(Ping->text(), "pong");
}

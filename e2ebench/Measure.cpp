//===- Measure.cpp - the end-to-end benchmark's measuring program -------===//
//
// Part of cjpack. MIT license.
//
// Runs one workload of the end-to-end benchmark in this process and
// prints its result as one JSON line on stdout. run.py is the front
// end: it builds this binary, runs each workload in its own process,
// validates the line and prints the metric table. README.md in this
// directory describes the workloads and every metric.
//
//   e2ebench_measure --workload pack|unpack|unpack_indexed|serve
//                   --seed N --seconds S --trace 0|1 --workdir DIR
//   e2ebench_measure --drift SECONDS         (host speed probe)
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics from spans recorded
// around the calls into each layer, and writes the spans to DIR.
//
//===----------------------------------------------------------------------===//

#include "BenchMath.h"
#include "classfile/Reader.h"
#include "classfile/Transform.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/ArchiveReader.h"
#include "pack/Packer.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>
#include <zlib.h>

using namespace cjpack;
using namespace cjpack::serve;
using e2ebench::Span;

namespace {

//===----------------------------------------------------------------------===//
// Fixed shape of the benchmark
//===----------------------------------------------------------------------===//

constexpr unsigned CorpusClasses = 2000; // scaleBenchmark(2000): ~10.7 MB
constexpr unsigned NumJars = 8;
constexpr unsigned ClassesPerJar = CorpusClasses / NumJars;
/// Shards and threads of every pack and unpack call, and the server's
/// pool size: `packtool --threads 4`. Also the width of set-up work.
constexpr unsigned Width = 4;
constexpr unsigned Connections = 4;
/// Set-ups per untraced run; setup_s is their median.
constexpr unsigned SetupRuns = 3;
/// Share of a traced serve run spent on the socket; the rest replays
/// the request sequence in-process.
constexpr double SocketShare = 0.7;
/// No run may outlast this, whatever the sample rule asks.
constexpr double HardCapSec = 120;
/// Untraced timed phases run in segments of this length, with the host
/// speed sampled between them.
constexpr double SegmentMs = 1000;
/// Host-speed kernel time that defines the reference speed: times are
/// scaled by RefKernelMs / (kernel time around their segment).
constexpr double RefKernelMs = 14.0;

enum class Workload { Pack, Unpack, UnpackIndexed, Serve };

struct WorkloadSpec {
  const char *Name;
  Workload Kind;
  /// The percentile reported as latency_tail_ms: the highest standard
  /// percentile that keeps ten samples beyond it at this workload's op
  /// rate, except that serve's p99 sits on host stalls and is reported
  /// ungated (see STEADINESS.md).
  double TailQ;
  /// Threads of the host-speed kernel: those of the op's dominant phase
  /// (serial parse/prepare/deflate in pack, serial decode in
  /// unpack_indexed, parallel shard decode in unpack, 4 clients and 4
  /// handlers in serve).
  unsigned KernelThreads;
};

constexpr WorkloadSpec Workloads[] = {
    {"pack", Workload::Pack, 0.75, 1},
    {"unpack", Workload::Unpack, 0.90, Width},
    {"unpack_indexed", Workload::UnpackIndexed, 0.75, 1},
    {"serve", Workload::Serve, 0.90, Width},
};

[[noreturn]] void fail(const std::string &Msg) {
  throw std::runtime_error(Msg);
}

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

double nowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - Epoch)
      .count();
}

/// Derives an independent generator seed for stream \p Stream.
uint64_t subSeed(uint64_t Seed, uint64_t Stream) {
  return e2ebench::SplitMix64(Seed ^ (Stream * 0xD1B54A32D192ED03ull)).next();
}

/// Runs Body(0..N-1) on Width threads. Set-up only; Body must not throw.
template <typename Fn> void parallelFor(size_t N, Fn &&Body) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Width; ++T)
    Workers.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Body(I);
    });
  for (std::thread &W : Workers)
    W.join();
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// The speed of this host right now, from a fixed kernel: zlib deflate
/// (level 6) of a fixed 128 KiB buffer, code that no cjpack change
/// touches, run on \p Threads threads at once. On a shared host the
/// same work runs tens of percent faster or slower for stretches longer
/// than a run. Timing this kernel around each measured segment lets the
/// benchmark scale its times to one reference speed (see README.md,
/// "Host-speed normalization").
class HostSpeed {
public:
  explicit HostSpeed(unsigned Threads)
      : In(128 << 10), Out(Threads, std::vector<uint8_t>(compressBound(
                                         128 << 10))) {
    e2ebench::SplitMix64 Rng(7);
    for (size_t I = 0; I < In.size(); ++I)
      In[I] = static_cast<uint8_t>("cjpack host speed "[I % 18] ^
                                   (Rng.next() & 3));
  }

  /// One run of the kernel (every thread deflating the buffer), in ms.
  double kernelMs() {
    auto Deflate = [this](std::vector<uint8_t> &O) {
      uLongf Len = O.size();
      compress2(O.data(), &Len, In.data(), In.size(), 6);
    };
    double T0 = nowMs();
    std::vector<std::thread> Others;
    for (size_t T = 1; T < Out.size(); ++T)
      Others.emplace_back(Deflate, std::ref(Out[T]));
    Deflate(Out[0]);
    for (std::thread &T : Others)
      T.join();
    return nowMs() - T0;
  }

  /// Median of three kernel runs, in ms.
  double sampleMs() {
    std::vector<double> V = {kernelMs(), kernelMs(), kernelMs()};
    return e2ebench::percentile(V, 0.5);
  }

  /// Scale factor for work timed between two samples.
  static double factor(double BeforeMs, double AfterMs) {
    return RefKernelMs / ((BeforeMs + AfterMs) / 2);
  }

private:
  std::vector<uint8_t> In;
  std::vector<std::vector<uint8_t>> Out; ///< one per thread
};

//===----------------------------------------------------------------------===//
// Tracing: spans recorded from the benchmark's own code
//===----------------------------------------------------------------------===//

/// In-memory span log of one thread; written out when the run ends.
class Tracer {
public:
  int64_t open(const char *Name, uint64_t Op, int64_t Parent) {
    Spans.push_back({Name, nowMs(), 0, Parent, Op});
    return static_cast<int64_t>(Spans.size()) - 1;
  }
  void close(int64_t I) { Spans[static_cast<size_t>(I)].End = nowMs(); }

  /// Appends \p Other's spans, rebasing their parent links.
  void absorb(const Tracer &Other) {
    auto Base = static_cast<int64_t>(Spans.size());
    for (Span S : Other.Spans) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Spans.push_back(S);
    }
  }

  std::vector<Span> Spans;
};

/// A span around one scope; a no-op when \p T is null (untraced op).
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, uint64_t Op, int64_t Parent = -1)
      : T(T), I(T ? T->open(Name, Op, Parent) : -1) {}
  ~SpanScope() {
    if (T)
      T->close(I);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  int64_t id() const { return I; }

private:
  Tracer *T;
  int64_t I;
};

/// The clock and root span of one op. stop() ends both at once, so the
/// output check that follows is in neither.
class OpClock {
public:
  OpClock(Tracer *T, uint64_t Op)
      : T(T), Span(T ? T->open("op", Op, -1) : -1), T0(nowMs()) {}

  int64_t span() const { return Span; }

  double stop() {
    double Ms = nowMs() - T0;
    if (T)
      T->close(Span);
    return Ms;
  }

private:
  Tracer *T;
  int64_t Span;
  double T0;
};

/// Per-layer values that are not span durations, summed over traced ops.
struct LayerTotals {
  double ShardMaxMs = 0;
  double InflatedBytes = 0;
};

//===----------------------------------------------------------------------===//
// Set-up: corpus, reference outputs, reference archives, server
//===----------------------------------------------------------------------===//

/// One prepared class: internal name and the canonical bytes every
/// restore must reproduce.
struct ClassRef {
  std::string Name;
  std::vector<uint8_t> Bytes;
};

struct Jar {
  std::vector<NamedClass> Raw;    ///< pack input, as generated
  std::vector<ClassRef> Expected; ///< sorted by name
  uint64_t InputBytes = 0;
  std::vector<uint8_t> Archive; ///< the workload's reference archive
  /// From the reference archive's PackResult.
  uint64_t CoderRefs = 0;
  uint64_t CoderDefs = 0;
  uint64_t RawStreamBytes = 0;
  std::string Path; ///< serve: the archive file
};

/// Everything one set-up builds. The destructor closes the client
/// connections and drains the server.
class State {
public:
  State() = default;
  State(const State &) = delete;
  State &operator=(const State &) = delete;
  ~State() {
    Conns.clear();
    if (Srv) {
      Srv->requestStop();
      Srv->wait();
    }
    for (const Jar &J : Jars)
      if (!J.Path.empty())
        std::remove(J.Path.c_str());
  }

  std::vector<Jar> Jars;
  /// Jar visiting order of the batch workloads and the popularity rank
  /// order of serve: a seeded permutation.
  std::vector<size_t> Order;
  std::unique_ptr<Server> Srv;
  std::vector<Client> Conns;
};

PackOptions packOptions(Workload W, unsigned Threads) {
  PackOptions O;
  O.Shards = Width;
  O.Threads = Threads;
  O.RandomAccessIndex =
      W == Workload::UnpackIndexed || W == Workload::Serve;
  return O;
}

/// Compares a restore against the jar's prepared classes: same class
/// set, byte-identical bytes. \p Got pairs are (internal name, bytes).
bool matches(const Jar &J,
             std::vector<std::pair<std::string_view,
                                   const std::vector<uint8_t> *>> Got) {
  if (Got.size() != J.Expected.size())
    return false;
  std::sort(Got.begin(), Got.end());
  for (size_t I = 0; I < Got.size(); ++I)
    if (Got[I].first != J.Expected[I].Name ||
        *Got[I].second != J.Expected[I].Bytes)
      return false;
  return true;
}

bool matches(const Jar &J, const std::vector<NamedClass> &Restored) {
  std::vector<std::pair<std::string_view, const std::vector<uint8_t> *>> Got;
  for (const NamedClass &C : Restored) {
    std::string_view N = C.Name;
    if (N.ends_with(".class"))
      N.remove_suffix(6);
    Got.emplace_back(N, &C.Data);
  }
  return matches(J, std::move(Got));
}

bool fetchMatches(const Expected<Response> &R, const ClassRef &C) {
  return R && R->St == Status::Ok && R->Body == C.Bytes;
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  if (!Out)
    fail("cannot write " + Path);
}

/// The set-up's heavy part: generates the corpus, cuts the jars, and
/// computes every jar's prepared classes and reference archive.
std::vector<Jar> buildJars(Workload W, uint64_t Seed) {
  CorpusSpec Spec = scaleBenchmark(CorpusClasses);
  Spec.Seed = Seed;
  std::vector<NamedClass> Corpus = generateCorpus(Spec);
  if (Corpus.size() != CorpusClasses)
    fail("corpus has " + std::to_string(Corpus.size()) + " classes");

  std::vector<Jar> Jars(NumJars);
  for (unsigned J = 0; J < NumJars; ++J) {
    Jar &Jr = Jars[J];
    auto Begin = Corpus.begin() + J * ClassesPerJar;
    Jr.Raw.assign(std::make_move_iterator(Begin),
                  std::make_move_iterator(Begin + ClassesPerJar));
    for (const NamedClass &C : Jr.Raw)
      Jr.InputBytes += C.Data.size();
    Jr.Expected.resize(ClassesPerJar);
  }

  // The reference outputs: each class parsed, prepared and written
  // once, exactly the canonical form every restore must reproduce.
  std::vector<std::string> Errors(CorpusClasses);
  parallelFor(CorpusClasses, [&](size_t I) {
    Jar &Jr = Jars[I / ClassesPerJar];
    const NamedClass &C = Jr.Raw[I % ClassesPerJar];
    auto CF = parseClassFile(C.Data);
    if (!CF) {
      Errors[I] = C.Name + ": " + CF.message();
      return;
    }
    if (auto E = prepareForPacking(*CF)) {
      Errors[I] = C.Name + ": " + E.message();
      return;
    }
    ClassRef &Ref = Jr.Expected[I % ClassesPerJar];
    Ref.Name = std::string(CF->thisClassName());
    Ref.Bytes = writeClassFile(*CF);
  });
  for (const std::string &E : Errors)
    if (!E.empty())
      fail("prepare: " + E);
  for (Jar &Jr : Jars)
    std::sort(Jr.Expected.begin(), Jr.Expected.end(),
              [](const ClassRef &A, const ClassRef &B) {
                return A.Name < B.Name;
              });

  // Reference archives, one jar per setup thread.
  Errors.assign(NumJars, "");
  parallelFor(NumJars, [&](size_t J) {
    Jar &Jr = Jars[J];
    auto R = packClassBytes(Jr.Raw, packOptions(W, 1));
    if (!R) {
      Errors[J] = R.message();
      return;
    }
    Jr.Archive = std::move(R->Archive);
    Jr.CoderRefs = R->Trace.Coder.totalRefs();
    Jr.CoderDefs = R->Trace.Coder.totalDefs();
    Jr.RawStreamBytes = R->Sizes.totalRaw();
    if (W == Workload::Pack) {
      // The reference's own restore is checked once, here.
      auto Back = unpackArchive(Jr.Archive, 1);
      if (!Back || !matches(Jr, *Back))
        Errors[J] = "reference archive does not restore its classes";
    }
  });
  for (size_t J = 0; J < NumJars; ++J)
    if (!Errors[J].empty())
      fail("jar " + std::to_string(J) + ": " + Errors[J]);
  return Jars;
}

/// Flat little-endian encoding of the jars, for the pipe from the
/// set-up child.
class WireWriter {
public:
  void u64(uint64_t V) {
    uint8_t B[8];
    for (int I = 0; I < 8; ++I)
      B[I] = static_cast<uint8_t>(V >> (8 * I));
    Buf.insert(Buf.end(), B, B + 8);
  }
  template <typename Bytes> void blob(const Bytes &V) {
    u64(V.size());
    auto *P = reinterpret_cast<const uint8_t *>(V.data());
    Buf.insert(Buf.end(), P, P + V.size());
  }

  std::vector<uint8_t> Buf;
};

class WireReader {
public:
  explicit WireReader(const std::vector<uint8_t> &Buf)
      : P(Buf.data()), End(Buf.data() + Buf.size()) {}

  uint64_t u64() {
    need(8);
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= uint64_t(P[I]) << (8 * I);
    P += 8;
    return V;
  }
  template <typename Bytes> Bytes blob() {
    uint64_t N = u64();
    need(N);
    Bytes V(P, P + N);
    P += N;
    return V;
  }
  bool atEnd() const { return P == End; }

private:
  void need(uint64_t N) {
    if (N > static_cast<uint64_t>(End - P))
      fail("set-up child sent a truncated result");
  }

  const uint8_t *P;
  const uint8_t *End;
};

std::vector<uint8_t> encodeJars(const std::vector<Jar> &Jars) {
  WireWriter W;
  for (const Jar &J : Jars) {
    W.u64(J.Raw.size());
    for (const NamedClass &C : J.Raw) {
      W.blob(C.Name);
      W.blob(C.Data);
    }
    for (const ClassRef &C : J.Expected) {
      W.blob(C.Name);
      W.blob(C.Bytes);
    }
    W.blob(J.Archive);
    W.u64(J.CoderRefs);
    W.u64(J.CoderDefs);
    W.u64(J.RawStreamBytes);
  }
  return std::move(W.Buf);
}

std::vector<Jar> decodeJars(const std::vector<uint8_t> &Buf) {
  WireReader R(Buf);
  std::vector<Jar> Jars(NumJars);
  for (Jar &J : Jars) {
    uint64_t N = R.u64();
    if (N != ClassesPerJar)
      fail("set-up child sent a jar of " + std::to_string(N) + " classes");
    J.Raw.resize(N);
    for (NamedClass &C : J.Raw) {
      C.Name = R.blob<std::string>();
      C.Data = R.blob<std::vector<uint8_t>>();
      J.InputBytes += C.Data.size();
    }
    J.Expected.resize(N);
    for (ClassRef &C : J.Expected) {
      C.Name = R.blob<std::string>();
      C.Bytes = R.blob<std::vector<uint8_t>>();
    }
    J.Archive = R.blob<std::vector<uint8_t>>();
    J.CoderRefs = R.u64();
    J.CoderDefs = R.u64();
    J.RawStreamBytes = R.u64();
  }
  if (!R.atEnd())
    fail("set-up child sent trailing bytes");
  return Jars;
}

/// Runs buildJars in a forked child and reads the jars back over a
/// pipe. The corpus generator and the concurrent reference packs peak
/// far above any workload; in the child, that transient memory never
/// counts towards this process's peak_rss_mb. Call with no other
/// thread running.
std::vector<Jar> buildJarsInChild(Workload W, uint64_t Seed) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    fail("pipe failed");
  fflush(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0)
    fail("fork failed");
  if (Pid == 0) {
    ::close(Fds[0]);
    int Rc = 1;
    try {
      std::vector<uint8_t> Buf = encodeJars(buildJars(W, Seed));
      size_t Done = 0;
      while (Done < Buf.size()) {
        ssize_t N = ::write(Fds[1], Buf.data() + Done, Buf.size() - Done);
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0)
          break;
        Done += static_cast<size_t>(N);
      }
      Rc = Done == Buf.size() ? 0 : 1;
    } catch (const std::exception &E) {
      fprintf(stderr, "e2ebench: set-up: %s\n", E.what());
    }
    _exit(Rc);
  }
  ::close(Fds[1]);
  std::vector<uint8_t> Buf;
  uint8_t Chunk[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fds[0], Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Buf.insert(Buf.end(), Chunk, Chunk + N);
  }
  ::close(Fds[0]);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    fail("set-up child failed");
  return decodeJars(Buf);
}

std::unique_ptr<State> setUp(Workload W, uint64_t Seed,
                             const std::string &WorkDir) {
  auto St = std::make_unique<State>();
  St->Jars = buildJarsInChild(W, Seed);

  St->Order.resize(NumJars);
  for (size_t I = 0; I < NumJars; ++I)
    St->Order[I] = I;
  e2ebench::SplitMix64 OrderRng(subSeed(Seed, 1));
  for (size_t I = NumJars - 1; I > 0; --I)
    std::swap(St->Order[I], St->Order[OrderRng.below(I + 1)]);

  if (W != Workload::Serve)
    return St;

  size_t ArchiveBytes = 0;
  for (size_t J = 0; J < NumJars; ++J) {
    Jar &Jr = St->Jars[J];
    Jr.Path = WorkDir + "/a" + std::to_string(J) + ".cjp";
    writeFile(Jr.Path, Jr.Archive);
    ArchiveBytes += Jr.Archive.size();
  }
  ServerConfig Config;
  Config.UnixSocketPath = WorkDir + "/cjpackd.sock";
  Config.Threads = Width;
  if (Config.CacheBytes < 2 * ArchiveBytes)
    Config.CacheBytes = 2 * ArchiveBytes;
  auto Srv = Server::start(Config);
  if (!Srv)
    fail("server: " + Srv.message());
  St->Srv = std::move(*Srv);
  for (unsigned C = 0; C < Connections; ++C) {
    auto Conn = Client::connectUnix(Config.UnixSocketPath);
    if (!Conn)
      fail("connect: " + Conn.message());
    St->Conns.push_back(std::move(*Conn));
  }

  // Warm-up: every class once, so the cache holds every archive and
  // every shard is decoded before timing starts.
  std::vector<uint64_t> Wrong(Connections, 0);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back([&, C] {
      for (size_t J = C; J < NumJars; J += Connections)
        for (const ClassRef &Cls : St->Jars[J].Expected)
          if (!fetchMatches(St->Conns[C].call(Opcode::UnpackClass,
                                              {St->Jars[J].Path, Cls.Name}),
                            Cls))
            ++Wrong[C];
    });
  for (std::thread &T : Threads)
    T.join();
  for (uint64_t N : Wrong)
    if (N)
      fail("warm-up: " + std::to_string(N) + " wrong responses");
  return St;
}

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

/// One timed operation: latency of the library calls only (the output
/// check runs after the clock stops), correctness, and bytes counted
/// towards throughput.
struct OpResult {
  double Ms = 0;
  bool Ok = false;
  uint64_t Bytes = 0;
};

OpResult packOp(const Jar &J, Tracer *T, uint64_t Op, LayerTotals &Totals) {
  PackOptions O = packOptions(Workload::Pack, Width);
  OpResult Res;
  Res.Bytes = J.InputBytes;
  if (!T) {
    double T0 = nowMs();
    auto R = packClassBytes(J.Raw, O);
    Res.Ms = nowMs() - T0;
    Res.Ok = R && R->Archive == J.Archive;
    return Res;
  }

  // Traced: packClassBytes' own sequence, one span per layer call.
  OpClock Clock(T, Op);
  int64_t Enc = -1;
  std::optional<Expected<PackResult>> R;
  {
    std::vector<ClassFile> Parsed;
    Parsed.reserve(J.Raw.size());
    for (const NamedClass &C : J.Raw) {
      int64_t P = T->open("classfile.parse", Op, Clock.span());
      auto CF = parseClassFile(C.Data);
      T->close(P);
      if (!CF)
        return Res;
      SpanScope Prep(T, "classfile.prepare", Op, Clock.span());
      if (prepareForPacking(*CF))
        return Res;
      Parsed.push_back(std::move(*CF));
    }
    Enc = T->open("pack.encode", Op, Clock.span());
    R.emplace(packClasses(Parsed, O));
    T->close(Enc);
  }
  Res.Ms = Clock.stop();
  if (!*R)
    return Res;
  const PackResult &Packed = **R;

  // pack.model/emit/deflate: the phases packClasses already records,
  // laid end to end from the start of its span.
  const PhaseTimes &Ph = Packed.Trace.Phases;
  double At = T->Spans[static_cast<size_t>(Enc)].Start;
  for (auto [Name, Sec] : {std::pair{"pack.model", Ph.ModelSec},
                           std::pair{"pack.emit", Ph.EmitSec},
                           std::pair{"pack.deflate", Ph.DeflateSec}}) {
    T->Spans.push_back({Name, At, At + Sec * 1e3, Enc, Op});
    At += Sec * 1e3;
  }
  double ShardMax = 0;
  for (const ShardTimes &S : Packed.Trace.Shards)
    ShardMax = std::max(ShardMax, (S.ModelSec + S.EmitSec) * 1e3);
  Totals.ShardMaxMs += ShardMax;
  Res.Ok = Packed.Archive == J.Archive;
  return Res;
}

OpResult unpackOp(const Jar &J, Tracer *T, uint64_t Op, LayerTotals &) {
  UnpackOptions UO;
  UO.Threads = Width;
  OpResult Res;
  if (!T) {
    double T0 = nowMs();
    auto R = unpackArchive(J.Archive, UO);
    Res.Ms = nowMs() - T0;
    if (!R)
      return Res;
    for (const NamedClass &C : *R)
      Res.Bytes += C.Data.size();
    Res.Ok = matches(J, *R);
    return Res;
  }

  // Traced: unpackArchive's own sequence.
  OpClock Clock(T, Op);
  int64_t Dec = T->open("pack.decode", Op, Clock.span());
  auto CFs = unpackClasses(J.Archive, UO);
  T->close(Dec);
  if (!CFs)
    return Res;
  std::vector<std::vector<uint8_t>> Out(CFs->size());
  for (size_t I = 0; I < CFs->size(); ++I) {
    SpanScope Wr(T, "classfile.write", Op, Clock.span());
    Out[I] = writeClassFile((*CFs)[I]);
  }
  Res.Ms = Clock.stop();
  std::vector<std::pair<std::string_view, const std::vector<uint8_t> *>> Got;
  for (size_t I = 0; I < CFs->size(); ++I) {
    Res.Bytes += Out[I].size();
    Got.emplace_back((*CFs)[I].thisClassName(), &Out[I]);
  }
  Res.Ok = matches(J, std::move(Got));
  return Res;
}

/// Today's unpackAnyArchive v3 branch: open, unpackAll, write each.
OpResult unpackIndexedOp(const Jar &J, Tracer *T, uint64_t Op,
                         LayerTotals &Totals) {
  OpResult Res;
  OpClock Clock(T, Op);
  auto Rd = [&] {
    SpanScope S(T, "pack.reader_open", Op, Clock.span());
    return PackedArchiveReader::open(J.Archive);
  }();
  if (!Rd)
    return Res;
  auto CFs = [&] {
    SpanScope S(T, "pack.reader_decode", Op, Clock.span());
    return Rd->unpackAll();
  }();
  if (!CFs)
    return Res;
  std::vector<std::vector<uint8_t>> Out(CFs->size());
  for (size_t I = 0; I < CFs->size(); ++I) {
    SpanScope Wr(T, "classfile.write", Op, Clock.span());
    Out[I] = writeClassFile((*CFs)[I]);
  }
  Res.Ms = Clock.stop();
  if (T)
    Totals.InflatedBytes += static_cast<double>(Rd->inflatedBytes());
  std::vector<std::pair<std::string_view, const std::vector<uint8_t> *>> Got;
  for (size_t I = 0; I < CFs->size(); ++I) {
    Res.Bytes += Out[I].size();
    Got.emplace_back((*CFs)[I].thisClassName(), &Out[I]);
  }
  Res.Ok = matches(J, std::move(Got));
  return Res;
}

//===----------------------------------------------------------------------===//
// Timed loops
//===----------------------------------------------------------------------===//

/// What one timed phase measured. Lat holds every untraced op latency
/// scaled to the reference host speed, RawLat the same unscaled;
/// TracedLat the traced ops' latencies (trace mode, unscaled).
struct Measured {
  std::vector<double> Lat;
  std::vector<double> RawLat;
  std::vector<double> TracedLat;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Bytes = 0;
  /// Milliseconds the throughput is taken over, scaled and raw.
  double WallMs = 0;
  double RawWallMs = 0;
  /// Host-speed kernel samples taken during the phase.
  std::vector<double> KernelMs;
};

/// Host-speed bookkeeping of one segmented phase. Without a HostSpeed
/// (the traced run) every factor is 1 and no kernel runs.
class SegmentClock {
public:
  SegmentClock(HostSpeed *Host, Measured &M)
      : Host(Host), M(M), Before(sample()) {}

  /// Ends a segment: samples the host again and returns the factor
  /// for the work timed since the previous sample.
  double endSegment() {
    double After = sample();
    double F = Host ? HostSpeed::factor(Before, After) : 1.0;
    Before = After;
    return F;
  }

private:
  double sample() {
    if (!Host)
      return RefKernelMs;
    double K = Host->sampleMs();
    M.KernelMs.push_back(K);
    return K;
  }

  HostSpeed *Host;
  Measured &M;
  double Before;
};

/// Closed loop, one caller: ops cycle through the jars in the seeded
/// order until \p Seconds pass, the tail has ten samples beyond it and
/// the last cycle is complete, so every run weighs each jar equally.
/// In trace mode traced and untraced cycles alternate.
template <typename OpFn>
Measured runBatch(const State &St, double Seconds, double TailQ,
                  HostSpeed *Host, Tracer *T, LayerTotals &Totals,
                  OpFn &&Op) {
  Measured M;
  size_t Cycle = T ? 2 * NumJars : NumJars;
  size_t MinOps = T ? 2 * Cycle : e2ebench::minSamplesFor(TailQ);
  // Lead-in: one untimed (but checked) op, so the first timed one does
  // not pay for cold caches.
  ++M.Attempted;
  if (!Op(St.Jars[St.Order[0]], nullptr, 0, Totals).Ok)
    ++M.Failed;
  double Start = nowMs();
  SegmentClock Segments(Host, M);
  uint64_t I = 0;
  for (bool Done = false; !Done;) {
    std::vector<OpResult> Seg;
    double SegEnd = nowMs() + SegmentMs;
    for (;; ++I) {
      double Now = nowMs();
      if (Now - Start >= HardCapSec * 1e3 ||
          (Now - Start >= Seconds * 1e3 && I >= MinOps && I % Cycle == 0)) {
        Done = true;
        break;
      }
      if (Now >= SegEnd)
        break;
      const Jar &J = St.Jars[St.Order[I % NumJars]];
      bool Traced = T && (I / NumJars) % 2 == 1;
      Seg.push_back(Op(J, Traced ? T : nullptr, I, Totals));
    }
    double F = Segments.endSegment();
    for (uint64_t K = I - Seg.size(); const OpResult &R : Seg) {
      bool Traced = T && (K++ / NumJars) % 2 == 1;
      ++M.Attempted;
      if (!R.Ok) {
        ++M.Failed;
        continue;
      }
      if (Traced) {
        M.TracedLat.push_back(R.Ms);
        continue;
      }
      M.Lat.push_back(R.Ms * F);
      M.RawLat.push_back(R.Ms);
      M.Bytes += R.Bytes;
      M.WallMs += R.Ms * F;
      M.RawWallMs += R.Ms;
    }
  }
  return M;
}

/// The serve request sequence of connection \p C: archive by Zipf(1)
/// popularity over the seeded jar order, class uniform within it.
class RequestStream {
public:
  RequestStream(const State &St, uint64_t Seed, unsigned C)
      : St(St), Rng(subSeed(Seed, 100 + C)), Zipf(NumJars) {}

  std::pair<const Jar *, const ClassRef *> next() {
    const Jar &J = St.Jars[St.Order[Zipf.sample(Rng)]];
    return {&J, &J.Expected[Rng.below(J.Expected.size())]};
  }

private:
  const State &St;
  e2ebench::SplitMix64 Rng;
  e2ebench::ZipfSampler Zipf;
};

/// Closed loop over the socket: Connections callers, one request in
/// flight each, in segments separated by host-speed samples (the callers
/// wait at a barrier while the kernel runs). The first segment is a
/// lead-in and is not counted. In trace mode every other request
/// records a span.
Measured runServe(State &St, uint64_t Seed, double Seconds, double TailQ,
                  HostSpeed *Host, bool Trace, Tracer &Merged) {
  struct Sample {
    double Ms;
    uint32_t Bytes;
    uint32_t Segment;
    bool Traced;
  };
  struct PerConn {
    std::vector<Sample> Samples;
    uint64_t Attempted = 0;
    uint64_t Failed = 0;
    Tracer T;
  };
  std::vector<PerConn> Per(Connections);
  std::atomic<uint64_t> Completed{0};
  size_t MinOps = Trace ? 2 * e2ebench::minSamplesFor(0.5)
                        : e2ebench::minSamplesFor(TailQ);
  // Written by this thread only between barrier phases.
  bool Stop = false;
  double SegEnd = 0;
  std::barrier Sync(Connections + 1);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back([&, C] {
      PerConn &P = Per[C];
      RequestStream Reqs(St, Seed, C);
      uint64_t I = 0;
      for (uint32_t Seg = 0;; ++Seg) {
        Sync.arrive_and_wait();
        if (Stop)
          break;
        for (; nowMs() < SegEnd; ++I) {
          auto [J, Cls] = Reqs.next();
          bool Traced = Trace && I % 2 == 1;
          uint64_t Op = (uint64_t(C) << 40) | I;
          double T0 = nowMs();
          int64_t S = Traced ? P.T.open("serve.request", Op, -1) : -1;
          auto R =
              St.Conns[C].call(Opcode::UnpackClass, {J->Path, Cls->Name});
          if (Traced)
            P.T.close(S);
          double Ms = nowMs() - T0;
          Completed.fetch_add(1, std::memory_order_relaxed);
          ++P.Attempted;
          if (!fetchMatches(R, *Cls)) {
            ++P.Failed;
            continue;
          }
          P.Samples.push_back(
              {Ms, static_cast<uint32_t>(R->Body.size()), Seg, Traced});
        }
        Sync.arrive_and_wait();
      }
    });

  Measured M;
  SegmentClock Segments(Host, M);
  std::vector<double> Factor;
  double Start = nowMs();
  for (;;) {
    double Elapsed = nowMs() - Start;
    Stop = Elapsed >= HardCapSec * 1e3 ||
           (Elapsed >= Seconds * 1e3 && Completed.load() >= MinOps);
    double SegStart = nowMs();
    SegEnd = SegStart + SegmentMs;
    Sync.arrive_and_wait();
    if (Stop)
      break;
    Sync.arrive_and_wait();
    double SegMs = nowMs() - SegStart;
    Factor.push_back(Segments.endSegment());
    if (Factor.size() == 1) {
      Start = nowMs(); // the lead-in does not count towards Seconds
      continue;
    }
    M.WallMs += SegMs * Factor.back();
    M.RawWallMs += SegMs;
  }
  for (std::thread &T : Threads)
    T.join();

  for (PerConn &P : Per) {
    std::erase_if(P.Samples, [](const Sample &S) { return S.Segment == 0; });
    for (const Sample &S : P.Samples) {
      if (S.Traced) {
        M.TracedLat.push_back(S.Ms);
        continue;
      }
      M.Lat.push_back(S.Ms * Factor[S.Segment]);
      M.RawLat.push_back(S.Ms);
      M.Bytes += S.Bytes;
    }
    M.Attempted += P.Attempted;
    M.Failed += P.Failed;
    Merged.absorb(P.T);
  }
  return M;
}

/// Traced serve, second half: the same request sequence replayed
/// in-process against warm readers, timing unpackClass (materialize)
/// and writeClassFile without the socket.
Measured replayServe(const State &St, uint64_t Seed, double Seconds,
                     Tracer &T) {
  std::map<const Jar *, std::unique_ptr<PackedArchiveReader>> Readers;
  for (const Jar &J : St.Jars) {
    auto Rd = PackedArchiveReader::open(J.Archive);
    if (!Rd || !Rd->unpackAll())
      fail("replay: cannot warm a reader");
    Readers[&J] = std::make_unique<PackedArchiveReader>(std::move(*Rd));
  }
  std::vector<RequestStream> Streams;
  for (unsigned C = 0; C < Connections; ++C)
    Streams.emplace_back(St, Seed, C);

  Measured M;
  double Start = nowMs();
  for (uint64_t I = 0;
       nowMs() - Start < Seconds * 1e3 || M.Attempted < 20; ++I) {
    auto [J, Cls] = Streams[I % Connections].next();
    double T0 = nowMs();
    std::vector<uint8_t> Bytes;
    bool Ok = false;
    {
      SpanScope OpSpan(&T, "op", I);
      int64_t F = T.open("pack.reader_fetch", I, OpSpan.id());
      auto CF = Readers[J]->unpackClass(Cls->Name);
      T.close(F);
      if (CF) {
        SpanScope Wr(&T, "classfile.write", I, OpSpan.id());
        Bytes = writeClassFile(*CF);
        Ok = true;
      }
    }
    M.TracedLat.push_back(nowMs() - T0);
    ++M.Attempted;
    if (!Ok || Bytes != Cls->Bytes)
      ++M.Failed;
  }
  return M;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string num(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += quote(Ms[I].Name) + ": {\"value\": " + num(Ms[I].Value) +
           ", \"unit\": " + quote(Ms[I].Unit) + "}";
  }
  return Out + "}";
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) * 1024.0 / 1e6; // KiB on Linux
}

double median(std::vector<double> V) { return e2ebench::percentile(V, 0.5); }

/// The \p Q percentile of \p V as JSON, or null without ten samples
/// beyond it.
std::string tailOrNull(std::vector<double> V, double Q) {
  if (e2ebench::samplesBeyond(V.size(), Q) < e2ebench::MinSamplesBeyond)
    return "null";
  return num(e2ebench::percentile(V, Q));
}

/// Archive bytes over input classfile bytes, across the 8 archives.
double archiveRatio(const State &St) {
  double Archive = 0, Input = 0;
  for (const Jar &J : St.Jars) {
    Archive += static_cast<double>(J.Archive.size());
    Input += static_cast<double>(J.InputBytes);
  }
  return Archive / Input;
}

/// Per-layer metrics from the traced run's spans: each layer's summed
/// span time per traced op, and op.other_ms, the op time no child span
/// covers.
std::vector<Metric> layerMetrics(const State &St,
                                 const Tracer &T, const Measured &Ops,
                                 const LayerTotals &Totals,
                                 const std::vector<Metric> &ServeLayer) {
  std::vector<double> Self = e2ebench::selfTimes(T.Spans);
  std::map<std::string, double> Sum;
  double OpCount = 0, OtherMs = 0;
  for (size_t I = 0; I < T.Spans.size(); ++I) {
    const Span &S = T.Spans[I];
    if (std::strcmp(S.Name, "op") == 0) {
      ++OpCount;
      OtherMs += Self[I];
    } else {
      Sum[S.Name] += S.duration();
    }
  }
  auto PerOp = [&](double V) { return OpCount > 0 ? V / OpCount : 0; };
  auto Layer = [&](const char *Name) { return PerOp(Sum[Name]); };

  // Coder counts: mean per reference archive (exact for a seed).
  double Refs = 0, Defs = 0, Raw = 0, Arch = 0;
  for (const Jar &J : St.Jars) {
    Refs += static_cast<double>(J.CoderRefs);
    Defs += static_cast<double>(J.CoderDefs);
    Raw += static_cast<double>(J.RawStreamBytes);
    Arch += static_cast<double>(J.Archive.size());
  }

  // Tracing overhead: traced minus untraced p50 of the interleaved ops.
  double Overhead = !Ops.TracedLat.empty() && !Ops.Lat.empty()
                        ? median(Ops.TracedLat) - median(Ops.Lat)
                        : 0;

  std::vector<Metric> Ms = {
      {"classfile.parse_ms", Layer("classfile.parse"), "ms"},
      {"classfile.prepare_ms", Layer("classfile.prepare"), "ms"},
      {"classfile.write_ms", Layer("classfile.write"), "ms"},
      {"pack.encode_ms", Layer("pack.encode"), "ms"},
      {"pack.model_ms", Layer("pack.model"), "ms"},
      {"pack.emit_ms", Layer("pack.emit"), "ms"},
      {"pack.deflate_ms", Layer("pack.deflate"), "ms"},
      {"pack.shard_max_ms", PerOp(Totals.ShardMaxMs), "ms"},
      {"pack.coder_refs", Refs / NumJars, "count"},
      {"pack.coder_defs", Defs / NumJars, "count"},
      {"pack.raw_stream_bytes", Raw / NumJars, "bytes"},
      {"pack.archive_bytes", Arch / NumJars, "bytes"},
      {"pack.decode_ms", Layer("pack.decode"), "ms"},
      {"pack.reader_open_ms", Layer("pack.reader_open"), "ms"},
      {"pack.reader_decode_ms", Layer("pack.reader_decode"), "ms"},
      {"pack.reader_inflated_bytes", PerOp(Totals.InflatedBytes), "bytes"},
      {"pack.reader_fetch_ms", Layer("pack.reader_fetch"), "ms"},
  };
  Ms.insert(Ms.end(), ServeLayer.begin(), ServeLayer.end());
  Ms.push_back({"op.other_ms", PerOp(OtherMs), "ms"});
  Ms.push_back({"trace.overhead_p50_ms", Overhead, "ms"});
  return Ms;
}

void writeTrace(const std::string &Path, const std::string &Workload,
                uint64_t Seed, const Tracer &T) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << "{\"workload\": " << quote(Workload) << ", \"seed\": " << Seed
      << ", \"columns\": [\"name\", \"start_ms\", \"end_ms\", \"parent\", "
         "\"op\"],\n \"spans\": [";
  for (size_t I = 0; I < T.Spans.size(); ++I) {
    const Span &S = T.Spans[I];
    Out << (I ? ",\n  " : "\n  ") << "[" << quote(S.Name) << ", "
        << num(S.Start) << ", " << num(S.End) << ", " << S.Parent << ", "
        << S.Op << "]";
  }
  Out << "]}\n";
  if (!Out)
    fail("cannot write " + Path);
}

//===----------------------------------------------------------------------===//
// Host drift probe
//===----------------------------------------------------------------------===//

/// Runs the host-speed kernel in a loop and prints its rate in each
/// 2-second window, one number per line: how much this host's own
/// speed moves while nothing about the work changes.
int runDrift(double Seconds) {
  HostSpeed Host(1);
  double Start = nowMs(), WindowStart = Start;
  unsigned Iters = 0;
  while (nowMs() - Start < Seconds * 1e3) {
    Host.kernelMs();
    ++Iters;
    double Now = nowMs();
    if (Now - WindowStart >= 2000) {
      printf("%s\n", num(Iters * 1000.0 / (Now - WindowStart)).c_str());
      fflush(stdout);
      Iters = 0;
      WindowStart = Now;
    }
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 9001;
  double Seconds = 20;
  bool Trace = false;
  std::string WorkDir = ".";
  double DriftSeconds = 0;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      fail("missing value for " + Flag);
    std::string V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::stoull(V);
    else if (Flag == "--seconds")
      A.Seconds = std::stod(V);
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--workdir")
      A.WorkDir = V;
    else if (Flag == "--drift")
      A.DriftSeconds = std::stod(V);
    else
      fail("unknown flag " + Flag);
  }
  return A;
}

int run(const Args &A) {
  const WorkloadSpec *Spec = nullptr;
  for (const WorkloadSpec &W : Workloads)
    if (A.Workload == W.Name)
      Spec = &W;
  if (!Spec)
    fail("unknown workload '" + A.Workload + "'");
  Workload W = Spec->Kind;

  // The untraced run scales its times to the reference host speed; the
  // traced run reports raw times.
  std::optional<HostSpeed> Host;
  if (!A.Trace)
    Host.emplace(Spec->KernelThreads);
  HostSpeed *HostP = Host ? &*Host : nullptr;

  // Set up SetupRuns times (once when traced); keep the last. Freed
  // memory goes back to the system between set-ups, so the peak RSS is
  // one set-up's, not a pile-up of several.
  std::vector<double> SetupSec, RawSetupSec;
  std::unique_ptr<State> St;
  double KernelBefore = Host ? Host->sampleMs() : RefKernelMs;
  for (unsigned R = 0; R < (A.Trace ? 1u : SetupRuns); ++R) {
    St.reset();
    malloc_trim(0);
    double T0 = nowMs();
    St = setUp(W, A.Seed, A.WorkDir);
    double Sec = (nowMs() - T0) / 1e3;
    double KernelAfter = Host ? Host->sampleMs() : RefKernelMs;
    RawSetupSec.push_back(Sec);
    SetupSec.push_back(Sec * HostSpeed::factor(KernelBefore, KernelAfter));
    KernelBefore = KernelAfter;
  }
  fprintf(stderr, "e2ebench: %s seed %llu set up in %.2f s (median of %zu)\n",
          Spec->Name, static_cast<unsigned long long>(A.Seed),
          median(RawSetupSec), RawSetupSec.size());

  Tracer T;
  LayerTotals Totals;
  Measured M;
  CacheStats Before, After;
  LatencySummary Service;
  Measured Replay;
  switch (W) {
  case Workload::Pack:
    M = runBatch(*St, A.Seconds, Spec->TailQ, HostP, A.Trace ? &T : nullptr,
                 Totals, packOp);
    break;
  case Workload::Unpack:
    M = runBatch(*St, A.Seconds, Spec->TailQ, HostP, A.Trace ? &T : nullptr,
                 Totals, unpackOp);
    break;
  case Workload::UnpackIndexed:
    M = runBatch(*St, A.Seconds, Spec->TailQ, HostP, A.Trace ? &T : nullptr,
                 Totals, unpackIndexedOp);
    break;
  case Workload::Serve: {
    Before = St->Srv->cache().stats();
    double Socket = A.Trace ? A.Seconds * SocketShare : A.Seconds;
    M = runServe(*St, A.Seed, Socket, Spec->TailQ, HostP, A.Trace, T);
    After = St->Srv->cache().stats();
    Service = St->Srv->metrics().latency();
    if (A.Trace)
      Replay = replayServe(*St, A.Seed, A.Seconds - Socket, T);
    break;
  }
  }

  uint64_t Misses = After.Misses - Before.Misses;
  uint64_t Attempted = M.Attempted + Replay.Attempted;
  uint64_t Failed = M.Failed + Replay.Failed;
  bool Correct = Failed == 0 && Misses == 0;
  if (Misses)
    fprintf(stderr, "e2ebench: serve timed phase missed the cache %llu "
                    "times\n", static_cast<unsigned long long>(Misses));

  std::vector<Metric> Ms;
  std::string Info;
  if (!A.Trace) {
    std::vector<double> Lat = M.Lat, Raw = M.RawLat;
    double P50 = e2ebench::percentile(Lat, 0.5);
    double Tail = e2ebench::percentile(Lat, Spec->TailQ);
    Ms = {
        {"throughput_mb_s", e2ebench::throughputMBs(M.Bytes, M.WallMs / 1e3),
         "MB/s"},
        {"latency_p50_ms", P50, "ms"},
        {"latency_tail_ms", Tail, "ms"},
        {"archive_ratio", archiveRatio(*St), "ratio"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(SetupSec), "s"},
    };
    Info = "\"samples\": " + std::to_string(Lat.size()) +
           ", \"tail_percentile\": " + num(Spec->TailQ * 100) +
           ", \"samples_beyond_tail\": " +
           std::to_string(e2ebench::samplesBeyond(Lat.size(), Spec->TailQ)) +
           ", \"error_rate\": " +
           num(Attempted ? double(Failed) / double(Attempted) : 0.0) +
           ", \"cache_misses\": " + std::to_string(Misses) +
           ", \"kernel_threads\": " + std::to_string(Spec->KernelThreads) +
           ", \"kernel_ms_reference\": " + num(RefKernelMs) +
           ", \"kernel_ms_median\": " + num(median(M.KernelMs)) +
           ", \"kernel_ms_min\": " +
           num(*std::min_element(M.KernelMs.begin(), M.KernelMs.end())) +
           ", \"kernel_ms_max\": " +
           num(*std::max_element(M.KernelMs.begin(), M.KernelMs.end())) +
           ", \"raw_throughput_mb_s\": " +
           num(e2ebench::throughputMBs(M.Bytes, M.RawWallMs / 1e3)) +
           ", \"raw_latency_p50_ms\": " + num(e2ebench::percentile(Raw, 0.5)) +
           ", \"raw_latency_tail_ms\": " +
           num(e2ebench::percentile(Raw, Spec->TailQ)) +
           ", \"raw_setup_s\": " + num(median(RawSetupSec)) +
           ", \"latency_p90_ms\": " + tailOrNull(M.Lat, 0.90) +
           ", \"latency_p99_ms\": " + tailOrNull(M.Lat, 0.99) +
           ", \"timed_s\": " + num(M.RawWallMs / 1e3);
  } else {
    std::vector<Metric> ServeLayer = {
        {"serve.service_p50_ms", 0, "ms"}, {"serve.service_p99_ms", 0, "ms"},
        {"serve.wait_p50_ms", 0, "ms"},    {"serve.wait_p99_ms", 0, "ms"},
        {"serve.cache_hits", 0, "count"},  {"serve.cache_misses", 0, "count"},
        {"serve.cache_hit_ratio", 0, "ratio"}};
    if (W == Workload::Serve) {
      std::vector<double> All = M.Lat;
      All.insert(All.end(), M.TracedLat.begin(), M.TracedLat.end());
      double C50 = e2ebench::percentile(All, 0.5);
      double C99 = e2ebench::percentile(All, 0.99);
      uint64_t Hits = After.Hits - Before.Hits;
      ServeLayer[0].Value = Service.P50Us / 1e3;
      ServeLayer[1].Value = Service.P99Us / 1e3;
      ServeLayer[2].Value = C50 - Service.P50Us / 1e3;
      ServeLayer[3].Value = C99 - Service.P99Us / 1e3;
      ServeLayer[4].Value = double(Hits);
      ServeLayer[5].Value = double(Misses);
      ServeLayer[6].Value =
          Hits + Misses ? double(Hits) / double(Hits + Misses) : 0;
    }
    Ms = layerMetrics(*St, T, M, Totals, ServeLayer);
    std::string Path = A.WorkDir + "/trace-" + Spec->Name + "-" +
                       std::to_string(A.Seed) + ".json";
    writeTrace(Path, Spec->Name, A.Seed, T);
    Info = "\"trace_file\": " + quote(Path) +
           ", \"spans\": " + std::to_string(T.Spans.size()) +
           ", \"traced_ops\": " +
           std::to_string(M.TracedLat.size() + Replay.TracedLat.size()) +
           ", \"untraced_ops\": " + std::to_string(M.Lat.size());
  }

  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s, \"info\": {\"workload\": %s, \"seed\": %llu, "
         "%s}}\n",
         Correct ? "true" : "false",
         static_cast<unsigned long long>(Attempted),
         static_cast<unsigned long long>(Failed), metricsJson(Ms).c_str(),
         quote(Spec->Name).c_str(), static_cast<unsigned long long>(A.Seed),
         Info.c_str());
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    Args A = parseArgs(Argc, Argv);
    if (A.DriftSeconds > 0)
      return runDrift(A.DriftSeconds);
    return run(A);
  } catch (const std::exception &E) {
    fprintf(stderr, "e2ebench: %s\n", E.what());
    return 1;
  }
}

//===- bench_micro.cpp - google-benchmark microbenchmarks -----------------===//
//
// Part of cjpack. MIT license.
//
// Microbenchmarks of the hot substrates: the indexed-skiplist MTF queue
// from both sides (the paper's O(log k) move-to-front, §5), the §6
// integer codecs, the arithmetic coder, pack's model layer (prepare, and
// pack without deflate) and compression stage, and end-to-end
// pack/unpack on a small corpus.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "classfile/Reader.h"
#include "coder/Arithmetic.h"
#include "corpus/Rng.h"
#include "mtf/MtfQueue.h"
#include "pack/ArchiveFormat.h"
#include "support/ThreadPool.h"
#include "support/VarInt.h"
#include "zip/Zlib.h"
#include <benchmark/benchmark.h>

using namespace cjpack;

static void BM_MtfQueueUse(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  MtfQueue Q;
  for (uint32_t V = 0; V < N; ++V)
    Q.pushFront(V);
  Rng R(1);
  for (auto _ : State) {
    uint32_t V = static_cast<uint32_t>(R.zipf(N));
    benchmark::DoNotOptimize(Q.use(V));
  }
}
BENCHMARK(BM_MtfQueueUse)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_MtfQueueUseUniform(benchmark::State &State) {
  // Uniform access is the worst case for MTF: positions average N/2,
  // exercising the O(log k) bound rather than the hot front.
  size_t N = static_cast<size_t>(State.range(0));
  MtfQueue Q;
  for (uint32_t V = 0; V < N; ++V)
    Q.pushFront(V);
  Rng R(2);
  for (auto _ : State) {
    uint32_t V = static_cast<uint32_t>(R.below(N));
    benchmark::DoNotOptimize(Q.use(V));
  }
}
BENCHMARK(BM_MtfQueueUseUniform)->Arg(1024)->Arg(16384);

static void BM_MtfQueueUseAt(benchmark::State &State) {
  // The decoder side: move-to-front by position, with positions drawn
  // Zipf like the indices an encoder writes for skewed references.
  size_t N = static_cast<size_t>(State.range(0));
  MtfQueue Q;
  for (uint32_t V = 0; V < N; ++V)
    Q.pushFront(V);
  Rng R(5);
  for (auto _ : State)
    benchmark::DoNotOptimize(Q.useAt(R.zipf(N)));
}
BENCHMARK(BM_MtfQueueUseAt)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_VarIntRoundTrip(benchmark::State &State) {
  Rng R(3);
  std::vector<uint64_t> Values;
  for (int I = 0; I < 1024; ++I)
    Values.push_back(R.next() >> (R.below(60)));
  for (auto _ : State) {
    ByteWriter W;
    for (uint64_t V : Values)
      writeVarUInt(W, V);
    ByteReader Rd(W.data());
    uint64_t Sum = 0;
    for (size_t I = 0; I < Values.size(); ++I)
      Sum += readVarUInt(Rd);
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Values.size()));
}
BENCHMARK(BM_VarIntRoundTrip);

static void BM_ArithmeticEncode(benchmark::State &State) {
  Rng R(4);
  std::vector<uint32_t> Symbols;
  for (int I = 0; I < 4096; ++I)
    Symbols.push_back(static_cast<uint32_t>(R.zipf(256)));
  for (auto _ : State) {
    AdaptiveModel Model(256);
    ArithmeticEncoder Enc;
    for (uint32_t S : Symbols)
      Enc.encode(Model, S);
    benchmark::DoNotOptimize(Enc.finish());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Symbols.size()));
}
BENCHMARK(BM_ArithmeticEncode);

namespace {

const BenchData &microCorpus() {
  static BenchData B = [] {
    CorpusSpec S;
    S.Name = "micro";
    S.Seed = 77;
    S.NumClasses = 40;
    S.NumPackages = 4;
    return loadBench(S);
  }();
  return B;
}

} // namespace

namespace {

/// One e2ebench-sized jar: the first 250 classes of scaleBenchmark(2000)
/// at seed 9001.
const std::vector<NamedClass> &jarClasses() {
  static std::vector<NamedClass> Jar = [] {
    CorpusSpec Spec = scaleBenchmark(2000);
    Spec.Seed = 9001;
    std::vector<NamedClass> Classes = generateCorpus(Spec);
    Classes.resize(250);
    return Classes;
  }();
  return Jar;
}

/// The jar's classes, parsed.
const std::vector<ClassFile> &jarParsed() {
  static std::vector<ClassFile> Parsed = [] {
    std::vector<ClassFile> Out;
    for (const NamedClass &C : jarClasses()) {
      auto CF = parseClassFile(C.Data);
      if (!CF) {
        fprintf(stderr, "bench_micro: %s\n", CF.message().c_str());
        exit(1);
      }
      Out.push_back(std::move(*CF));
    }
    return Out;
  }();
  return Parsed;
}

/// Pack's compression batch for the jar, as 4 shards' streams plus the
/// dictionary frame body that deflates beside them.
struct JarBatch {
  std::vector<StreamSet> Shards;
  std::vector<uint8_t> DictBody;
  size_t RawBytes = 0;
};

const JarBatch &jarBatch() {
  static JarBatch B = [] {
    PackOptions O;
    O.Shards = 4;
    O.CompressStreams = false;
    auto P = packClassBytes(jarClasses(), O);
    // The stored archive reads back into the shards' raw streams.
    ByteReader R(P->Archive);
    auto H = readArchiveHeader(R);
    auto Dict = SharedDictionary::deserialize(R);
    auto Shards = deserializeShardedStreams(R);
    if (!H || !Dict || !Shards) {
      fprintf(stderr, "bench_micro: cannot read the raw jar archive\n");
      exit(1);
    }
    JarBatch Out;
    Out.DictBody = Dict->frameBody();
    Out.Shards.resize(Shards->size());
    for (size_t K = 0; K < Shards->size(); ++K) {
      for (unsigned I = 0; I < NumStreams; ++I) {
        ByteReader &In = (*Shards)[K].in(static_cast<StreamId>(I));
        Out.RawBytes += In.remaining();
        Out.Shards[K].out(static_cast<StreamId>(I))
            .writeBytes(In.readSpan(In.remaining()));
      }
    }
    return Out;
  }();
  return B;
}

} // namespace

static void BM_CompressStreams(benchmark::State &State) {
  // The version-2 compression stage alone: every stream's joint bytes
  // and the dictionary frame, one batch on a pool of range(0) threads.
  const JarBatch &B = jarBatch();
  ThreadPool Pool(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    BatchExtra Dict{B.DictBody, &SharedDictionary::deflateFrame, {}};
    benchmark::DoNotOptimize(serializeShardedStreams(
        B.Shards, BackendPlan(), nullptr, &Pool, &Dict));
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(B.RawBytes));
}
BENCHMARK(BM_CompressStreams)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void BM_PrepareClasses(benchmark::State &State) {
  // The canonical form (§12) of every class of the jar, on one thread:
  // lowering into a per-class model, then materializing through the
  // canonical pool builder.
  const std::vector<ClassFile> &Parsed = jarParsed();
  std::vector<ClassFile> Work;
  for (auto _ : State) {
    State.PauseTiming();
    Work = Parsed; // untimed: the copy, and freeing the last round
    State.ResumeTiming();
    for (ClassFile &CF : Work)
      if (prepareForPacking(CF))
        State.SkipWithError("prepare failed");
    benchmark::DoNotOptimize(Work);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Parsed.size()));
}
BENCHMARK(BM_PrepareClasses)->Unit(benchmark::kMillisecond);

static void BM_PackUncompressed(benchmark::State &State) {
  // Pack's model layer without deflate: lowering and counting per shard,
  // the serial dictionary build, and the emitting pass, for the jar as 4
  // shards on range(0) threads.
  const std::vector<ClassFile> &Parsed = jarParsed();
  PackOptions O;
  O.Shards = 4;
  O.CompressStreams = false;
  O.Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    auto P = packClasses(Parsed, O);
    if (!P)
      State.SkipWithError("pack failed");
    benchmark::DoNotOptimize(P);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Parsed.size()));
}
BENCHMARK(BM_PackUncompressed)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void BM_PackArchive(benchmark::State &State) {
  const BenchData &B = microCorpus();
  for (auto _ : State) {
    auto P = packClasses(B.Prepared, PackOptions());
    benchmark::DoNotOptimize(P);
  }
  State.SetBytesProcessed(
      State.iterations() *
      static_cast<int64_t>(totalClassBytes(B.StrippedBytes)));
}
BENCHMARK(BM_PackArchive);

static void BM_UnpackArchive(benchmark::State &State) {
  const BenchData &B = microCorpus();
  auto P = packClasses(B.Prepared, PackOptions());
  if (!P)
    State.SkipWithError("pack failed");
  for (auto _ : State) {
    auto U = unpackClasses(P->Archive);
    benchmark::DoNotOptimize(U);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(P->Archive.size()));
}
BENCHMARK(BM_UnpackArchive);

static void BM_DeflateClassfiles(benchmark::State &State) {
  const BenchData &B = microCorpus();
  std::vector<uint8_t> All;
  for (const NamedClass &C : B.StrippedBytes)
    All.insert(All.end(), C.Data.begin(), C.Data.end());
  for (auto _ : State)
    benchmark::DoNotOptimize(deflateBytes(All));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(All.size()));
}
BENCHMARK(BM_DeflateClassfiles);

BENCHMARK_MAIN();

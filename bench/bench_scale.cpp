//===- bench_scale.cpp - 10k-class scale campaign -------------------------===//
//
// Part of cjpack. MIT license.
//
// The scale campaign: a 10,000-class / 50+ MB corpus (an order of
// magnitude past the paper's largest benchmark) driven through the
// zero-copy ingestion model and the sharded pack pipeline.
//
// Measures:
//   * parse throughput (MB/s) for the three ownership modes — Owning
//     (bulk arena copy), Borrowed (no copy at all), and the
//     rvalue-vector adopt overload (buffer donation) — plus the arena
//     counters that quantify the allocation reduction: one or two
//     arena allocations per class instead of one malloc per string
//     and attribute payload
//   * pack wall time, serial (1 shard / 1 thread) versus sharded
//     (8 shards / all threads) versus autotuned (--shards=auto), and
//     the sharded archive's size overhead
//   * peak RSS via getrusage
//
//   bench_scale [--json FILE] [--classes N]
//
// The corpus is pinned (no CJPACK_SCALE): classes, input_bytes,
// raw_stream_bytes, and the arena counters are bit-stable across
// machines, so CI diffs them against bench/baselines/BENCH_scale.json
// via compare_bench.py. Timings, throughput, and the speedup ratio are
// informational — the committed baseline records them for the machine
// named by its hardware_concurrency field (speedup needs cores: on a
// 1-core container the sharded run cannot beat serial). The autotuned
// row carries no size fields at all — its shard count is
// machine-dependent by design.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "pack/Packer.h"
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <zlib.h>

#ifdef __unix__
#include <sys/resource.h>
#endif

using namespace cjpack;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Process peak RSS in KB (0 where unsupported).
uint64_t peakRssKb() {
#ifdef __unix__
  rusage Ru{};
  getrusage(RUSAGE_SELF, &Ru);
  return static_cast<uint64_t>(Ru.ru_maxrss);
#else
  return 0;
#endif
}

struct ParseStats {
  double Ms = 0;
  uint64_t ArenaAllocations = 0;
  uint64_t ArenaBytes = 0;
  uint64_t Views = 0; ///< string_view/span fields the model holds
};

/// Counts the borrowed views one class holds — each of these was an
/// owning std::string / std::vector (one allocation apiece) before the
/// zero-copy model.
uint64_t countViews(ClassFile &CF) {
  uint64_t N = 0;
  for (uint16_t I = 1; I < CF.CP.count(); ++I)
    if (CF.CP.isValidIndex(I) && CF.CP.entry(I).Tag == CpTag::Utf8)
      ++N;
  N += CF.Attributes.size();
  for (const MemberInfo &F : CF.Fields)
    N += F.Attributes.size();
  for (const MemberInfo &M : CF.Methods)
    N += M.Attributes.size();
  return N;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  unsigned NumClasses = 10000;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (std::strcmp(Argv[I], "--classes") == 0 && I + 1 < Argc)
      NumClasses = static_cast<unsigned>(std::atoi(Argv[++I]));
  }

  CorpusSpec Spec = scaleBenchmark(NumClasses);
  printf("Scale campaign: %u classes (%s)\n", NumClasses,
         Spec.Name.c_str());
  std::vector<NamedClass> Raw = generateCorpus(Spec);
  size_t InputBytes = totalClassBytes(Raw);
  printf("corpus: %zu classes, %s bytes\n\n", Raw.size(),
         withCommas(InputBytes).c_str());

  std::vector<JsonObject> Rows;
  int Rc = 0;

  //===--------------------------------------------------------------------===//
  // Parse throughput, three ownership modes
  //===--------------------------------------------------------------------===//

  auto ParseRow = [&](const char *Name, const ParseStats &S) {
    double MbPerS = InputBytes / 1e6 / (S.Ms / 1e3);
    printf("parse %-10s %8.1f ms  %7.1f MB/s  %10llu arena allocs  "
           "%12llu arena bytes\n",
           Name, S.Ms, MbPerS,
           static_cast<unsigned long long>(S.ArenaAllocations),
           static_cast<unsigned long long>(S.ArenaBytes));
    JsonObject Row;
    Row.add("name", std::string("scale/parse-") + Name);
    Row.add("classes", static_cast<uint64_t>(Raw.size()));
    Row.add("input_bytes", static_cast<uint64_t>(InputBytes));
    Row.add("parse_ms", S.Ms);
    Row.add("mb_per_s", MbPerS);
    Row.add("arena_allocations", S.ArenaAllocations);
    Row.add("arena_bytes", S.ArenaBytes);
    Row.add("model_views", S.Views);
    Rows.push_back(std::move(Row));
  };

  auto ParseAll = [&](ParseMode Mode) {
    ParseStats S;
    auto T0 = std::chrono::steady_clock::now();
    for (const NamedClass &C : Raw) {
      auto CF = parseClassFile(C.Data, {}, Mode);
      if (!CF) {
        fprintf(stderr, "parse failed: %s\n", CF.message().c_str());
        exit(1);
      }
      S.ArenaAllocations += CF->CP.arena().allocationCount();
      S.ArenaBytes += CF->CP.arena().bytesUsed();
      S.Views += countViews(*CF);
    }
    S.Ms = msSince(T0);
    return S;
  };

  ParseRow("owning", ParseAll(ParseMode::Owning));
  ParseRow("borrowed", ParseAll(ParseMode::Borrowed));

  {
    // Adopt: the caller's buffer is donated, so stage the copies
    // outside the clock — the mode's point is that a buffer you
    // already own costs nothing to hand over.
    std::vector<std::vector<uint8_t>> Buffers;
    Buffers.reserve(Raw.size());
    for (const NamedClass &C : Raw)
      Buffers.push_back(C.Data);
    ParseStats S;
    auto T0 = std::chrono::steady_clock::now();
    for (std::vector<uint8_t> &Buf : Buffers) {
      auto CF = parseClassFile(std::move(Buf));
      if (!CF) {
        fprintf(stderr, "parse failed: %s\n", CF.message().c_str());
        return 1;
      }
      S.ArenaAllocations += CF->CP.arena().allocationCount();
      S.ArenaBytes += CF->CP.arena().bytesUsed();
      S.Views += countViews(*CF);
    }
    S.Ms = msSince(T0);
    ParseRow("adopt", S);
  }

  //===--------------------------------------------------------------------===//
  // Pack wall: serial vs sharded vs autotuned
  //===--------------------------------------------------------------------===//

  std::vector<ClassFile> Prepared;
  Prepared.reserve(Raw.size());
  for (const NamedClass &C : Raw) {
    auto CF = parseClassFile(C.Data);
    if (!CF || prepareForPacking(*CF)) {
      fprintf(stderr, "prepare failed for %s\n", C.Name.c_str());
      return 1;
    }
    Prepared.push_back(std::move(*CF));
  }

  printf("\n");
  double SerialMs = 0;
  size_t SerialBytes = 0;
  auto PackRow = [&](const char *Name, unsigned Shards, unsigned Threads,
                     bool CompareSizes) {
    PackOptions O;
    O.Shards = Shards;
    O.Threads = Threads;
    auto T0 = std::chrono::steady_clock::now();
    auto Packed = packClasses(Prepared, O);
    double PackMs = msSince(T0);
    if (!Packed) {
      fprintf(stderr, "%s: pack failed: %s\n", Name,
              Packed.message().c_str());
      Rc = 1;
      return;
    }
    T0 = std::chrono::steady_clock::now();
    auto Restored = unpackClasses(Packed->Archive, Threads);
    double UnpackMs = msSince(T0);
    if (!Restored || Restored->size() != Prepared.size()) {
      fprintf(stderr, "%s: unpack failed\n", Name);
      Rc = 1;
      return;
    }
    size_t ResolvedShards = Packed->Trace.Shards.size();
    printf("pack %-12s %4zu shards %10.1f ms pack  %10.1f ms unpack  "
           "%12zu bytes\n",
           Name, ResolvedShards, PackMs, UnpackMs,
           Packed->Archive.size());

    JsonObject Row;
    Row.add("name", std::string("scale/pack-") + Name);
    Row.add("classes", static_cast<uint64_t>(Prepared.size()));
    Row.add("input_bytes", static_cast<uint64_t>(InputBytes));
    if (CompareSizes) {
      Row.add("shards", static_cast<uint64_t>(ResolvedShards));
      Row.add("archive_bytes",
              static_cast<uint64_t>(Packed->Archive.size()));
      Row.add("raw_stream_bytes",
              static_cast<uint64_t>(Packed->Sizes.totalRaw()));
    } else {
      // Autotuned: the shard count (and with it every size) depends on
      // hardware_concurrency, so none of it belongs in a cross-machine
      // baseline diff.
      Row.add("resolved_shards", static_cast<uint64_t>(ResolvedShards));
    }
    Row.add("pack_ms", PackMs);
    Row.add("unpack_ms", UnpackMs);
    if (SerialMs > 0) {
      Row.add("speedup_vs_serial", SerialMs / PackMs);
      if (CompareSizes && SerialBytes > 0)
        Row.add("size_overhead_vs_serial",
                static_cast<double>(Packed->Archive.size()) / SerialBytes -
                    1.0);
    } else {
      SerialMs = PackMs;
      SerialBytes = Packed->Archive.size();
    }
    Rows.push_back(std::move(Row));
  };

  PackRow("serial", /*Shards=*/1, /*Threads=*/1, /*CompareSizes=*/true);
  PackRow("sharded8", /*Shards=*/8, /*Threads=*/0, /*CompareSizes=*/true);
  PackRow("auto", /*Shards=*/0, /*Threads=*/0, /*CompareSizes=*/false);

  printf("\npeak RSS: %s KB\n", withCommas(peakRssKb()).c_str());

  if (!JsonPath.empty()) {
    FILE *Out = fopen(JsonPath.c_str(), "w");
    if (!Out) {
      fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    JsonObject Header;
    Header.add("bench", "scale");
    Header.add("zlib", zlibVersion());
    Header.add("hardware_concurrency",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    Header.add("peak_rss_kb", peakRssKb());
    writeBenchJson(Out, Header, Rows);
    fclose(Out);
    printf("wrote %s\n", JsonPath.c_str());
  }
  return Rc;
}

//===- packtool.cpp - a command-line pack/unpack tool ----------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
// A small production-style CLI over the library:
//
//   packtool pack <in.jar|in.zip> <out.cjp>   pack a jar's classfiles
//   packtool unpack <in.cjp> <out.jar>        unpack to a stored jar
//   packtool list <in.cjp>                    list a v3 archive's classes
//   packtool unpack-class <in.cjp> <name>     extract one class lazily
//   packtool info <in.cjp|in.jar>             describe an archive
//   packtool verify <in.class|jar|cjp>        run the bytecode verifier
//   packtool lint <in.class|jar|cjp>          whole-archive static analysis
//   packtool stats <in.cjp|in.jar> [--json]   per-stream composition
//   packtool tune <in.jar> <out.cjp>          per-stream backend tournament
//   packtool client <socket|port> <cmd> ...   drive a running cjpackd
//   packtool selftest <out-dir>               write a demo jar + archive
//
// `--threads N` (anywhere on the command line) packs into N shards
// encoded on N worker threads, and unpacks sharded archives on N
// threads. The default (1) writes the classic single-shard format.
// `--shards=N` overrides the shard count independently of the worker
// count; `--shards=auto` lets the library pick from the class count
// and hardware concurrency (autoShardCount), which trades
// cross-machine reproducibility for scaling on big inputs.
//
// `--indexed` on pack/stats writes the version-3 random-access layout
// (per-class index + independently compressed shard blobs). `list` and
// `unpack-class` require a version-3 archive — they memory-map it and
// touch only the index (list) or one shard's blob (unpack-class);
// unpack/info/verify/lint/stats accept any version, because they decode
// through the library's one entry point (unpackArchive) and class-set
// loader (loadClassSet).
//
// `--backend=<name>` on pack/stats selects the final compression stage
// (store, zlib, huffman, arith); `tune` packs once per backend and
// repacks with the winning backend per stream. `--tune-for=size`
// (default) scores by packed bytes alone; `speed` and `balanced` fold
// each backend's measured encode+decode cost into the score, trading
// bytes for cheaper round-trips (machine-dependent output).
//
// `--verify[=warn|strict]` on pack lints every classfile with the
// flow analyzer first: warn (the default) reports diagnostics and
// packs anyway, strict refuses to pack a flagged input. The standalone
// `verify` command exits nonzero on any diagnostic unless --warn; on
// whole-archive inputs it builds the class hierarchy first so joins
// track least-common-superclass reference types.
//
// `lint` resolves every member reference against the archive's class
// hierarchy and reports cycles, missing ancestors, duplicate classes,
// and dangling/ambiguous/kind-mismatched references, plus counts of
// unreferenced private members and dead constant-pool entries. `--json`
// emits a machine-readable report; `--strict` exits nonzero on any
// structural diagnostic (dead weight never affects the exit code).
//
// `--strip-unreferenced` on pack drops those dead private members (and
// their pool entries) before encoding; the result is gated by a
// restore-then-verify pass in the library and pack fails loudly if the
// stripped archive does not restore cleanly. It combines with
// `--indexed`.
//
// Non-class members of the input jar are carried in a side jar, as §12
// prescribes (the packed format handles classfiles only).
//
//===----------------------------------------------------------------------===//

#include "analysis/ArchiveAnalysis.h"
#include "analysis/Verifier.h"
#include "corpus/Corpus.h"
#include "pack/ArchiveFormat.h"
#include "pack/ArchiveReader.h"
#include "pack/Model.h"
#include "pack/Packer.h"
#include "pack/Stats.h"
#include "serve/Client.h"
#include "support/InputFile.h"
#include "zip/Jar.h"
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace cjpack;

namespace {

/// Worker-thread count from --threads (also the pack shard count
/// unless --shards overrides it).
unsigned NumThreads = 1;

/// Shard count from --shards: -1 follows --threads, 0 is auto
/// (PackOptions::Shards = 0), positive is an explicit count.
int ShardsOpt = -1;

/// The pack shard count the command line asked for.
unsigned shardCount() {
  return ShardsOpt < 0 ? NumThreads : static_cast<unsigned>(ShardsOpt);
}

/// --indexed: pack/stats write the version-3 random-access layout.
bool Indexed = false;

/// Pre-pack lint mode from --verify[=warn|strict].
enum class LintMode { Off, Warn, Strict };
LintMode Lint = LintMode::Off;

/// Final-stage compression backend from --backend=<name>.
BackendId PackBackend = BackendId::Zlib;

/// --strip-unreferenced: pack drops dead private members pre-encode.
bool StripUnreferenced = false;

/// --tune-for=<goal>: what the tune tournament optimizes per stream.
/// Size is the historical pure-bytes winner (deterministic across
/// machines); speed and balanced fold measured per-backend encode +
/// decode cost into the score, so their output depends on the machine
/// that ran the tournament.
enum class TuneGoal { Size, Speed, Balanced };
TuneGoal TuneFor = TuneGoal::Size;

bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Data) {
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

/// Verifies one classfile, printing each diagnostic; returns the count.
size_t verifyOneClass(const std::string &Name,
                      const std::vector<uint8_t> &Data) {
  analysis::VerifyResult R = analysis::verifyClassBytes(Data);
  for (const analysis::Diagnostic &D : R.Diags)
    fprintf(stderr, "packtool: %s: %s\n", Name.c_str(),
            analysis::formatDiagnostic(D).c_str());
  return R.Diags.size();
}

/// Whole-archive verification (verifyClassSet over every parseable
/// class). Prints diagnostics; returns the total count.
size_t reportClassSet(const std::vector<NamedClass> &Classes) {
  std::vector<ClassFile> Parsed;
  std::vector<std::string> Names;
  std::vector<analysis::Diagnostic> ParseDiags;
  parseClassSet(Classes, DecodeLimits(), Parsed, Names, ParseDiags);
  size_t NumDiags = ParseDiags.size();
  for (const analysis::Diagnostic &D : ParseDiags)
    fprintf(stderr, "packtool: %s: %s\n", D.Method.c_str(),
            analysis::formatDiagnostic(D).c_str());
  std::vector<std::vector<analysis::Diagnostic>> Diags =
      verifyClassSet(Parsed);
  for (size_t K = 0; K < Parsed.size(); ++K) {
    for (const analysis::Diagnostic &D : Diags[K])
      fprintf(stderr, "packtool: %s: %s\n", Names[K].c_str(),
              analysis::formatDiagnostic(D).c_str());
    NumDiags += Diags[K].size();
  }
  return NumDiags;
}

/// Loads every classfile of a .class / .jar / .cjp input as named raw
/// bytes. Prints a message and returns false on a hard error.
bool loadClassInput(const std::string &InPath,
                    std::vector<NamedClass> &Out) {
  std::vector<uint8_t> Bytes;
  if (!readFile(InPath, Bytes)) {
    fprintf(stderr, "packtool: cannot read %s\n", InPath.c_str());
    return false;
  }
  UnpackOptions Options;
  Options.Threads = NumThreads;
  auto Classes = loadClassSet(Bytes, InPath, Options);
  if (!Classes) {
    fprintf(stderr, "packtool: %s\n", Classes.message().c_str());
    return false;
  }
  Out = std::move(*Classes);
  return true;
}

int cmdPack(const std::string &InPath, const std::string &OutPath) {
  std::vector<uint8_t> Bytes;
  if (!readFile(InPath, Bytes)) {
    fprintf(stderr, "packtool: cannot read %s\n", InPath.c_str());
    return 1;
  }
  auto Entries = readZip(Bytes);
  if (!Entries) {
    fprintf(stderr, "packtool: %s: %s\n", InPath.c_str(),
            Entries.message().c_str());
    return 1;
  }
  std::vector<NamedClass> Classes;
  std::vector<ZipEntry> Others;
  for (ZipEntry &E : *Entries) {
    if (isClassName(E.Name))
      Classes.push_back(std::move(E));
    else
      Others.push_back(std::move(E));
  }
  if (Lint != LintMode::Off) {
    size_t NumDiags = 0;
    for (const NamedClass &C : Classes)
      NumDiags += verifyOneClass(C.Name, C.Data);
    if (NumDiags != 0 && Lint == LintMode::Strict) {
      fprintf(stderr,
              "packtool: %zu verifier diagnostics; refusing to pack "
              "(--verify=strict)\n",
              NumDiags);
      return 1;
    }
  }
  PackOptions Options;
  Options.Shards = shardCount();
  Options.Threads = NumThreads;
  Options.RandomAccessIndex = Indexed;
  Options.Backend = PackBackend;
  Options.StripUnreferenced = StripUnreferenced;
  auto Packed = packClassBytes(Classes, Options);
  if (!Packed) {
    fprintf(stderr, "packtool: %s\n", Packed.message().c_str());
    return 1;
  }
  if (!writeFile(OutPath, Packed->Archive)) {
    fprintf(stderr, "packtool: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  printf("%s: %zu classes, %zu -> %zu bytes (%.0f%%)\n", OutPath.c_str(),
         Classes.size(), Bytes.size(), Packed->Archive.size(),
         100.0 * Packed->Archive.size() / Bytes.size());
  if (StripUnreferenced)
    printf("stripped %zu dead fields, %zu dead methods (restore "
           "verified)\n",
           Packed->StrippedFields, Packed->StrippedMethods);
  if (!Others.empty()) {
    std::string SidePath = OutPath + ".resources.jar";
    writeFile(SidePath, writeZip(Others, ZipMethod::Deflated));
    printf("%zu non-class members written to %s\n", Others.size(),
           SidePath.c_str());
  }
  return 0;
}

int cmdUnpack(const std::string &InPath, const std::string &OutPath) {
  std::vector<uint8_t> Bytes;
  if (!readFile(InPath, Bytes)) {
    fprintf(stderr, "packtool: cannot read %s\n", InPath.c_str());
    return 1;
  }
  auto Classes = unpackArchive(Bytes, NumThreads);
  if (!Classes) {
    fprintf(stderr, "packtool: %s\n", Classes.message().c_str());
    return 1;
  }
  if (!writeFile(OutPath, writeZip(*Classes, ZipMethod::Deflated))) {
    fprintf(stderr, "packtool: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  printf("%s: %zu classes, %zu bytes\n", OutPath.c_str(),
         Classes->size(), totalClassBytes(*Classes));
  return 0;
}

/// Opens \p Path as a memory-mapped version-3 archive. Prints the
/// failure and returns false when the file is unreadable or not an
/// indexed archive. The InputFile must outlive the reader (it owns the
/// mapped bytes).
bool openIndexed(const std::string &Path, InputFile &File,
                 Expected<PackedArchiveReader> &Reader) {
  auto F = InputFile::open(Path);
  if (!F) {
    fprintf(stderr, "packtool: %s\n", F.message().c_str());
    return false;
  }
  File = std::move(*F);
  Reader = PackedArchiveReader::open(File.data(), File.size());
  if (!Reader) {
    fprintf(stderr, "packtool: %s: %s\n", Path.c_str(),
            Reader.message().c_str());
    return false;
  }
  return true;
}

int cmdList(const std::string &InPath) {
  InputFile File;
  Expected<PackedArchiveReader> Reader = Error::failure("unopened");
  if (!openIndexed(InPath, File, Reader))
    return 1;
  // Names come straight off the uncompressed index: no stream is
  // inflated, no class decoded.
  for (const auto &E : Reader->index().Classes)
    printf("%6zu  %s\n", static_cast<size_t>(E.Shard), E.Name.c_str());
  printf("%s: %zu classes in %zu shards, %zu bytes%s\n", InPath.c_str(),
         Reader->classCount(), Reader->shardCount(), File.size(),
         File.isMapped() ? " (mapped)" : "");
  return 0;
}

int cmdUnpackClass(const std::string &InPath, const std::string &Name,
                   const std::string &OutPath) {
  InputFile File;
  Expected<PackedArchiveReader> Reader = Error::failure("unopened");
  if (!openIndexed(InPath, File, Reader))
    return 1;
  auto Data = Reader->unpackClassBytes(Name);
  if (!Data) {
    fprintf(stderr, "packtool: %s\n", Data.message().c_str());
    return 1;
  }
  std::string Out = OutPath;
  if (Out.empty()) {
    // Default to the simple class name in the working directory.
    size_t Slash = Name.find_last_of('/');
    Out = (Slash == std::string::npos ? Name : Name.substr(Slash + 1)) +
          ".class";
  }
  if (!writeFile(Out, *Data)) {
    fprintf(stderr, "packtool: cannot write %s\n", Out.c_str());
    return 1;
  }
  printf("%s: %zu bytes (inflated %llu of %zu archive bytes)\n",
         Out.c_str(), Data->size(),
         static_cast<unsigned long long>(Reader->inflatedBytes()),
         File.size());
  return 0;
}

int cmdInfo(const std::string &InPath) {
  std::vector<uint8_t> Bytes;
  if (!readFile(InPath, Bytes)) {
    fprintf(stderr, "packtool: cannot read %s\n", InPath.c_str());
    return 1;
  }
  if (hasArchiveMagic(Bytes)) {
    auto Classes = unpackArchive(Bytes, NumThreads);
    if (!Classes) {
      fprintf(stderr, "packtool: %s\n", Classes.message().c_str());
      return 1;
    }
    printf("%s: packed archive, %zu bytes, %zu classes\n",
           InPath.c_str(), Bytes.size(), Classes->size());
    for (const NamedClass &C : *Classes)
      printf("  %8zu  %s\n", C.Data.size(), C.Name.c_str());
    return 0;
  }
  auto Entries = readZip(Bytes);
  if (!Entries) {
    fprintf(stderr, "packtool: %s is neither a packed archive nor a "
                    "zip\n",
            InPath.c_str());
    return 1;
  }
  printf("%s: zip archive, %zu bytes, %zu members\n", InPath.c_str(),
         Bytes.size(), Entries->size());
  for (const ZipEntry &E : *Entries)
    printf("  %8zu  %s\n", E.Data.size(), E.Name.c_str());
  return 0;
}

int cmdVerify(const std::vector<std::string> &Args) {
  bool WarnOnly = false;
  std::string InPath;
  for (size_t I = 1; I < Args.size(); ++I) {
    if (Args[I] == "--warn")
      WarnOnly = true;
    else if (Args[I] == "--strict")
      WarnOnly = false;
    else
      InPath = Args[I];
  }
  if (InPath.empty()) {
    fprintf(stderr, "usage: packtool verify [--warn] <in.class|jar|cjp>\n");
    return 2;
  }
  std::vector<NamedClass> Classes;
  if (!loadClassInput(InPath, Classes))
    return 1;
  size_t NumDiags = reportClassSet(Classes);
  printf("%s: %zu classes verified, %zu diagnostics\n", InPath.c_str(),
         Classes.size(), NumDiags);
  return (NumDiags == 0 || WarnOnly) ? 0 : 1;
}

/// Escapes \p S for a JSON string literal.
void printJsonString(FILE *Out, const std::string &S) {
  fputc('"', Out);
  for (char C : S) {
    if (C == '"' || C == '\\')
      fprintf(Out, "\\%c", C);
    else if (static_cast<unsigned char>(C) < 0x20)
      fprintf(Out, "\\u%04x", C);
    else
      fputc(C, Out);
  }
  fputc('"', Out);
}

/// `packtool lint`: whole-archive static analysis. Structural findings
/// (cycles, missing ancestors, duplicates, unresolvable references)
/// print as diagnostics and, under --strict, fail the exit code; dead
/// members and dead pool entries are reported as counts only — they are
/// a size opportunity for --strip-unreferenced, not defects.
int cmdLint(const std::vector<std::string> &Args) {
  bool Json = false;
  bool Strict = false;
  std::string InPath;
  for (size_t I = 1; I < Args.size(); ++I) {
    if (Args[I] == "--json")
      Json = true;
    else if (Args[I] == "--strict")
      Strict = true;
    else
      InPath = Args[I];
  }
  if (InPath.empty()) {
    fprintf(stderr,
            "usage: packtool lint [--json] [--strict] <in.class|jar|cjp>\n");
    return 2;
  }
  std::vector<NamedClass> Classes;
  if (!loadClassInput(InPath, Classes))
    return 1;
  std::vector<ClassFile> Parsed;
  std::vector<std::string> Names;
  std::vector<analysis::Diagnostic> Diags;
  parseClassSet(Classes, DecodeLimits(), Parsed, Names, Diags);
  analysis::ArchiveAnalysisReport Report = analysis::analyzeArchive(Parsed);
  Diags.insert(Diags.end(), Report.Diags.begin(), Report.Diags.end());

  if (Json) {
    printf("{\n  \"source\": ");
    printJsonString(stdout, InPath);
    printf(",\n  \"classes\": %zu,\n", Report.ClassesAnalyzed);
    printf("  \"refs\": {\"checked\": %zu, \"resolved\": %zu, "
           "\"external\": %zu},\n",
           Report.RefsChecked, Report.RefsResolved, Report.RefsExternal);
    printf("  \"dead_members\": %zu,\n  \"dead_pool_entries\": %zu,\n",
           Report.DeadMembers.size(), Report.DeadPoolEntries);
    printf("  \"diagnostics\": [");
    for (size_t K = 0; K < Diags.size(); ++K) {
      const analysis::Diagnostic &D = Diags[K];
      printf("%s\n    {\"kind\": \"%s\", \"context\": ", K ? "," : "",
             analysis::diagKindName(D.Kind));
      printJsonString(stdout, D.Method);
      printf(", \"offset\": ");
      if (D.Offset == analysis::NoOffset)
        printf("null");
      else
        printf("%u", D.Offset);
      printf(", \"message\": ");
      printJsonString(stdout, D.Message);
      printf("}");
    }
    printf("%s],\n  \"clean\": %s\n}\n", Diags.empty() ? "" : "\n  ",
           Diags.empty() ? "true" : "false");
  } else {
    for (const analysis::Diagnostic &D : Diags)
      fprintf(stderr, "packtool: %s\n",
              analysis::formatDiagnostic(D).c_str());
    printf("%s: %zu classes, %zu refs (%zu resolved, %zu external), "
           "%zu diagnostics\n",
           InPath.c_str(), Report.ClassesAnalyzed, Report.RefsChecked,
           Report.RefsResolved, Report.RefsExternal, Diags.size());
    if (!Report.DeadMembers.empty() || Report.DeadPoolEntries != 0)
      printf("  %zu unreferenced private members, %zu dead constant-pool "
             "entries (pack --strip-unreferenced removes them)\n",
             Report.DeadMembers.size(), Report.DeadPoolEntries);
  }
  return (Strict && !Diags.empty()) ? 1 : 0;
}

/// Prints the per-stream composition table shared by both stats inputs.
void printStreamTable(const StreamSizes &Sizes, bool HaveItems) {
  printf("  %-18s %-8s %10s %10s%s\n", "stream", "category", "raw",
         "packed", HaveItems ? "      items" : "");
  for (unsigned I = 0; I < NumStreams; ++I) {
    StreamId Id = static_cast<StreamId>(I);
    if (Sizes.Raw[I] == 0 && Sizes.Packed[I] == 0 && Sizes.Items[I] == 0)
      continue;
    printf("  %-18s %-8s %10zu %10zu", streamName(Id),
           streamCategoryName(streamCategory(Id)), Sizes.Raw[I],
           Sizes.Packed[I]);
    if (HaveItems)
      printf(" %10llu", static_cast<unsigned long long>(Sizes.Items[I]));
    printf("\n");
  }
  printf("  %-18s %-8s %10zu %10zu", "total", "", Sizes.totalRaw(),
         Sizes.totalPacked());
  if (HaveItems)
    printf(" %10llu", static_cast<unsigned long long>(Sizes.totalItems()));
  printf("\n");
  size_t Packed = Sizes.totalPacked();
  if (Packed != 0) {
    printf("  composition:");
    for (StreamCategory C :
         {StreamCategory::Strings, StreamCategory::Opcodes,
          StreamCategory::Ints, StreamCategory::Refs, StreamCategory::Misc})
      printf(" %s %.1f%%", streamCategoryName(C),
             100.0 * Sizes.packedOf(C) / Packed);
    printf("\n");
  }
}

/// Prints the per-backend packed-byte accounting when any stream used a
/// non-default backend (or a non-zlib archive code is advertised).
void printBackendLine(const ArchiveStats &Stats) {
  printf("  backend %s:", archiveBackendCodeName(Stats.BackendCode));
  for (unsigned B = 0; B < NumBackends; ++B)
    if (Stats.BackendStreams[B] != 0)
      printf(" %s %zu bytes/%zu streams",
             backendName(static_cast<BackendId>(B)), Stats.BackendPacked[B],
             Stats.BackendStreams[B]);
  printf("\n");
}

/// Emits the machine-readable stats document. The schema is documented
/// in the README; bench tooling consumes the same shape.
void printStatsJson(FILE *Out, const std::string &Source,
                    const ArchiveStats &Stats, const StreamSizes &Sizes,
                    bool HaveItems, const PackResult *Packed,
                    size_t InputBytes) {
  fprintf(Out, "{\n  \"source\": \"%s\",\n  \"kind\": \"%s\",\n",
          Source.c_str(), Packed ? "jar" : "archive");
  fprintf(Out, "  \"version\": %u,\n  \"scheme\": \"%s\",\n",
          Stats.Version, refSchemeName(Stats.Scheme));
  fprintf(Out,
          "  \"flags\": {\"collapse_opcodes\": %s, \"compress_streams\": "
          "%s, \"preload\": %s},\n",
          Stats.CollapseOpcodes ? "true" : "false",
          Stats.CompressStreams ? "true" : "false",
          Stats.PreloadStandardRefs ? "true" : "false");
  fprintf(Out, "  \"shards\": %zu,\n  \"archive_bytes\": %zu,\n",
          Stats.Shards, Stats.ArchiveBytes);
  fprintf(Out, "  \"backend\": \"%s\",\n  \"backends\": [",
          archiveBackendCodeName(Stats.BackendCode));
  bool FirstBackend = true;
  for (unsigned B = 0; B < NumBackends; ++B) {
    if (Stats.BackendStreams[B] == 0)
      continue;
    fprintf(Out, "%s\n    {\"name\": \"%s\", \"packed\": %zu, "
                 "\"streams\": %zu}",
            FirstBackend ? "" : ",", backendName(static_cast<BackendId>(B)),
            Stats.BackendPacked[B], Stats.BackendStreams[B]);
    FirstBackend = false;
  }
  fprintf(Out, "\n  ],\n");
  fprintf(Out,
          "  \"header_bytes\": %zu,\n  \"index_bytes\": %zu,\n"
          "  \"indexed_classes\": %zu,\n  \"dictionary_bytes\": %zu,\n"
          "  \"dictionary_entries\": %zu,\n",
          Stats.HeaderBytes, Stats.IndexBytes, Stats.IndexedClasses,
          Stats.DictionaryBytes, Stats.DictionaryEntries);
  if (Packed) {
    fprintf(Out, "  \"input_bytes\": %zu,\n  \"class_count\": %zu,\n",
            InputBytes, Packed->ClassCount);
    const PhaseTimes &P = Packed->Trace.Phases;
    fprintf(Out,
            "  \"phases\": {\"parse_s\": %.6f, \"model_s\": %.6f, "
            "\"emit_s\": %.6f, \"deflate_s\": %.6f},\n",
            P.ParseSec, P.ModelSec, P.EmitSec, P.DeflateSec);
    fprintf(Out, "  \"shard_times\": [");
    for (size_t K = 0; K < Packed->Trace.Shards.size(); ++K) {
      const ShardTimes &S = Packed->Trace.Shards[K];
      fprintf(Out,
              "%s\n    {\"shard\": %zu, \"classes\": %zu, "
              "\"model_s\": %.6f, \"emit_s\": %.6f}",
              K ? "," : "", S.Shard, S.Classes, S.ModelSec, S.EmitSec);
    }
    fprintf(Out, "\n  ],\n  \"coder\": [");
    bool First = true;
    for (const auto &[Pool, T] : Packed->Trace.Coder.pools()) {
      fprintf(Out,
              "%s\n    {\"pool\": \"%s\", \"refs\": %llu, \"defs\": "
              "%llu}",
              First ? "" : ",",
              Pool < NumPoolKinds ? poolName(static_cast<PoolKind>(Pool))
                                  : "?",
              static_cast<unsigned long long>(T.Refs),
              static_cast<unsigned long long>(T.Defs));
      First = false;
    }
    fprintf(Out, "\n  ],\n");
  }
  fprintf(Out, "  \"streams\": [");
  bool First = true;
  for (unsigned I = 0; I < NumStreams; ++I) {
    StreamId Id = static_cast<StreamId>(I);
    fprintf(Out,
            "%s\n    {\"name\": \"%s\", \"category\": \"%s\", \"raw\": "
            "%zu, \"packed\": %zu",
            First ? "" : ",", streamName(Id),
            streamCategoryName(streamCategory(Id)), Sizes.Raw[I],
            Sizes.Packed[I]);
    if (HaveItems)
      fprintf(Out, ", \"items\": %llu",
              static_cast<unsigned long long>(Sizes.Items[I]));
    fprintf(Out, "}");
    First = false;
  }
  fprintf(Out, "\n  ],\n  \"categories\": {");
  First = true;
  for (StreamCategory C :
       {StreamCategory::Strings, StreamCategory::Opcodes,
        StreamCategory::Ints, StreamCategory::Refs, StreamCategory::Misc}) {
    fprintf(Out, "%s\"%s\": %zu", First ? "" : ", ",
            streamCategoryName(C), Sizes.packedOf(C));
    First = false;
  }
  fprintf(Out, "}\n}\n");
}

int cmdStats(const std::vector<std::string> &Args) {
  bool Json = false;
  std::string InPath;
  for (size_t I = 1; I < Args.size(); ++I) {
    if (Args[I] == "--json")
      Json = true;
    else
      InPath = Args[I];
  }
  if (InPath.empty()) {
    fprintf(stderr, "usage: packtool stats <in.cjp|in.jar> [--json]\n");
    return 2;
  }
  std::vector<uint8_t> Bytes;
  if (!readFile(InPath, Bytes)) {
    fprintf(stderr, "packtool: cannot read %s\n", InPath.c_str());
    return 1;
  }

  if (hasArchiveMagic(Bytes)) {
    // Existing archive: read the composition off the wire. No item
    // counts — those are encoder telemetry, not wire data.
    auto Stats = statPackedArchive(Bytes);
    if (!Stats) {
      fprintf(stderr, "packtool: %s\n", Stats.message().c_str());
      return 1;
    }
    if (Json) {
      printStatsJson(stdout, InPath, *Stats, Stats->Sizes,
                     /*HaveItems=*/false, /*Packed=*/nullptr, 0);
      return 0;
    }
    printf("%s: version %u, scheme %s, %zu shard%s, %zu bytes\n",
           InPath.c_str(), Stats->Version, refSchemeName(Stats->Scheme),
           Stats->Shards, Stats->Shards == 1 ? "" : "s",
           Stats->ArchiveBytes);
    printf("  header %zu bytes, dictionary %zu bytes (%zu entries)\n",
           Stats->HeaderBytes, Stats->DictionaryBytes,
           Stats->DictionaryEntries);
    if (Stats->Version == FormatVersionIndexed)
      printf("  index %zu bytes (%zu classes)\n", Stats->IndexBytes,
             Stats->IndexedClasses);
    printBackendLine(*Stats);
    printStreamTable(Stats->Sizes, /*HaveItems=*/false);
    return 0;
  }

  // A jar: pack it in memory and report the full pack-time telemetry
  // (stream items, phase times, per-shard timings, coder tallies).
  auto Entries = readZip(Bytes);
  if (!Entries) {
    fprintf(stderr,
            "packtool: %s is neither a packed archive nor a zip\n",
            InPath.c_str());
    return 1;
  }
  std::vector<NamedClass> Classes;
  for (ZipEntry &E : *Entries)
    if (isClassName(E.Name))
      Classes.push_back(std::move(E));
  PackOptions Options;
  Options.Shards = shardCount();
  Options.Threads = NumThreads;
  Options.RandomAccessIndex = Indexed;
  Options.Backend = PackBackend;
  auto Packed = packClassBytes(Classes, Options);
  if (!Packed) {
    fprintf(stderr, "packtool: %s\n", Packed.message().c_str());
    return 1;
  }
  auto Stats = statPackedArchive(Packed->Archive);
  if (!Stats) {
    fprintf(stderr, "packtool: %s\n", Stats.message().c_str());
    return 1;
  }
  // Report the encoder's accounting (it includes item counts); the
  // wire-level walk above contributes the framing figures and is the
  // cross-check that both agree.
  if (Json) {
    printStatsJson(stdout, InPath, *Stats, Packed->Sizes,
                   /*HaveItems=*/true, &*Packed, Bytes.size());
    return 0;
  }
  printf("%s: %zu classes, %zu -> %zu bytes (%.0f%%)\n", InPath.c_str(),
         Packed->ClassCount, Bytes.size(), Packed->Archive.size(),
         100.0 * Packed->Archive.size() / Bytes.size());
  printf("  version %u, scheme %s, %zu shard%s\n", Stats->Version,
         refSchemeName(Stats->Scheme), Stats->Shards,
         Stats->Shards == 1 ? "" : "s");
  printf("  header %zu bytes, dictionary %zu bytes (%zu entries)\n",
         Stats->HeaderBytes, Stats->DictionaryBytes,
         Stats->DictionaryEntries);
  if (Stats->Version == FormatVersionIndexed)
    printf("  index %zu bytes (%zu classes)\n", Stats->IndexBytes,
           Stats->IndexedClasses);
  printBackendLine(*Stats);
  printStreamTable(Packed->Sizes, /*HaveItems=*/true);
  const PhaseTimes &P = Packed->Trace.Phases;
  printf("  phases: parse %.3fs, model %.3fs, emit %.3fs, deflate "
         "%.3fs\n",
         P.ParseSec, P.ModelSec, P.EmitSec, P.DeflateSec);
  for (const ShardTimes &S : Packed->Trace.Shards)
    printf("  shard %zu: %zu classes, model %.3fs, emit %.3fs\n",
           S.Shard, S.Classes, S.ModelSec, S.EmitSec);
  if (!Packed->Trace.Coder.pools().empty()) {
    printf("  coder:");
    for (const auto &[Pool, T] : Packed->Trace.Coder.pools())
      printf(" %s %llu/%llu",
             Pool < NumPoolKinds ? poolName(static_cast<PoolKind>(Pool))
                                 : "?",
             static_cast<unsigned long long>(T.Refs),
             static_cast<unsigned long long>(T.Defs));
    printf(" (refs/defs)\n");
  }
  return 0;
}

/// The per-stream backend tournament: pack once per registered backend,
/// read each stream's packed size off the telemetry, score each
/// backend per stream, pick the winner (registry order breaks ties, so
/// store wins when nothing beats it), repack with that mixed plan, and
/// verify the result restores the same classfiles as the default
/// archive.
///
/// The score depends on --tune-for. `size` (the default) is packed
/// bytes alone. `speed` and `balanced` multiply the bytes by a
/// measured cost factor — each backend's deflate-phase telemetry plus
/// a timed unpack, normalized to cost-per-packed-byte against the
/// cheapest backend — linearly (speed) or by its square root
/// (balanced), trading some compression for cheaper round-trips.
int cmdTune(const std::string &InPath, const std::string &OutPath) {
  std::vector<uint8_t> Bytes;
  if (!readFile(InPath, Bytes)) {
    fprintf(stderr, "packtool: cannot read %s\n", InPath.c_str());
    return 1;
  }
  auto Entries = readZip(Bytes);
  if (!Entries) {
    fprintf(stderr, "packtool: %s: %s\n", InPath.c_str(),
            Entries.message().c_str());
    return 1;
  }
  std::vector<NamedClass> Classes;
  for (ZipEntry &E : *Entries)
    if (isClassName(E.Name))
      Classes.push_back(std::move(E));

  PackOptions Base;
  Base.Shards = shardCount();
  Base.Threads = NumThreads;
  Base.RandomAccessIndex = Indexed;

  std::array<StreamSizes, NumBackends> Sizes;
  std::array<size_t, NumBackends> ArchiveBytes{};
  std::array<double, NumBackends> CostPerByte{};
  std::vector<uint8_t> DefaultArchive;
  for (const CompressionBackend &B : allBackends()) {
    PackOptions Opt = Base;
    Opt.Backend = B.Id;
    auto Packed = packClassBytes(Classes, Opt);
    if (!Packed) {
      fprintf(stderr, "packtool: %s pack: %s\n", B.Name,
              Packed.message().c_str());
      return 1;
    }
    unsigned Idx = static_cast<unsigned>(B.Id);
    Sizes[Idx] = Packed->Sizes;
    ArchiveBytes[Idx] = Packed->Archive.size();
    if (TuneFor != TuneGoal::Size) {
      // Cost = backend-stage encode time (the deflate-phase telemetry;
      // parse/model/emit are backend-independent) plus a timed unpack,
      // per packed byte so backends compete on rate, not output size.
      auto T0 = std::chrono::steady_clock::now();
      auto Restored = unpackArchive(Packed->Archive, NumThreads);
      double DecodeSec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - T0)
                             .count();
      if (!Restored) {
        fprintf(stderr, "packtool: %s unpack: %s\n", B.Name,
                Restored.message().c_str());
        return 1;
      }
      size_t PackedBytes = Sizes[Idx].totalPacked();
      CostPerByte[Idx] = (Packed->Trace.Phases.DeflateSec + DecodeSec) /
                         static_cast<double>(PackedBytes ? PackedBytes : 1);
    }
    if (B.Id == BackendId::Zlib)
      DefaultArchive = std::move(Packed->Archive);
  }

  // Normalize measured cost against the cheapest backend; 1.0 for all
  // under --tune-for=size, so the score degenerates to packed bytes.
  std::array<double, NumBackends> CostFactor;
  CostFactor.fill(1.0);
  if (TuneFor != TuneGoal::Size) {
    double Cheapest = CostPerByte[0];
    for (unsigned B = 1; B < NumBackends; ++B)
      Cheapest = std::min(Cheapest, CostPerByte[B]);
    if (Cheapest <= 0)
      Cheapest = 1e-12; // degenerate timer resolution: fall back to size
    for (unsigned B = 0; B < NumBackends; ++B) {
      double F = CostPerByte[B] / Cheapest;
      CostFactor[B] = TuneFor == TuneGoal::Speed ? F : std::sqrt(F);
    }
  }

  std::array<BackendId, NumStreams> Winners;
  for (unsigned I = 0; I < NumStreams; ++I) {
    unsigned Best = 0;
    for (unsigned B = 1; B < NumBackends; ++B)
      if (static_cast<double>(Sizes[B].Packed[I]) * CostFactor[B] <
          static_cast<double>(Sizes[Best].Packed[I]) * CostFactor[Best])
        Best = B;
    Winners[I] = static_cast<BackendId>(Best);
  }

  PackOptions Mixed = Base;
  Mixed.StreamBackends = Winners;
  auto Tuned = packClassBytes(Classes, Mixed);
  if (!Tuned) {
    fprintf(stderr, "packtool: tuned pack: %s\n", Tuned.message().c_str());
    return 1;
  }

  // The tuned archive must restore exactly what the default one does.
  auto Want = unpackArchive(DefaultArchive, NumThreads);
  auto Got = unpackArchive(Tuned->Archive, NumThreads);
  if (!Want || !Got) {
    fprintf(stderr, "packtool: tune verification unpack failed: %s\n",
            (!Want ? Want.message() : Got.message()).c_str());
    return 1;
  }
  if (Want->size() != Got->size()) {
    fprintf(stderr, "packtool: tuned archive restores a different class "
                    "count; not writing it\n");
    return 1;
  }
  for (size_t I = 0; I < Want->size(); ++I)
    if ((*Want)[I].Name != (*Got)[I].Name ||
        (*Want)[I].Data != (*Got)[I].Data) {
      fprintf(stderr, "packtool: tuned archive restores different bytes "
                      "for %s; not writing it\n",
              (*Want)[I].Name.c_str());
      return 1;
    }

  printf("  %-18s %10s %10s %10s %10s  winner\n", "stream", "store",
         "zlib", "huffman", "arith");
  for (unsigned I = 0; I < NumStreams; ++I) {
    if (Sizes[0].Raw[I] == 0)
      continue;
    printf("  %-18s", streamName(static_cast<StreamId>(I)));
    for (unsigned B = 0; B < NumBackends; ++B)
      printf(" %10zu", Sizes[B].Packed[I]);
    printf("  %s\n", backendName(Winners[I]));
  }
  printf("  archives:");
  for (unsigned B = 0; B < NumBackends; ++B)
    printf(" %s %zu", backendName(static_cast<BackendId>(B)),
           ArchiveBytes[B]);
  printf(" -> tuned %zu bytes\n", Tuned->Archive.size());

  if (!writeFile(OutPath, Tuned->Archive)) {
    fprintf(stderr, "packtool: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  printf("%s: %zu classes, %zu -> %zu bytes (%.0f%%)\n", OutPath.c_str(),
         Classes.size(), Bytes.size(), Tuned->Archive.size(),
         100.0 * Tuned->Archive.size() / Bytes.size());
  return 0;
}

/// `packtool client <endpoint> <cmd> [args...]`: drive a running
/// cjpackd. The endpoint is a TCP loopback port when it is all digits,
/// a unix-domain socket path otherwise. Commands are the wire opcode
/// names (ping, pack, unpack, unpack-class, stat, verify, lint,
/// metrics, flush); unpack-class takes an optional trailing output
/// path (stdout otherwise).
int cmdClient(const std::vector<std::string> &Args) {
  if (Args.size() < 3) {
    fprintf(stderr,
            "usage: packtool client <socket|port> <cmd> [args...]\n");
    return 2;
  }
  const std::string &Endpoint = Args[1];
  const serve::Opcode *Op = serve::findOpcodeByName(Args[2]);
  if (!Op) {
    fprintf(stderr, "packtool: unknown server command '%s'\n",
            Args[2].c_str());
    return 2;
  }
  std::vector<std::string> OpArgs(Args.begin() + 3, Args.end());

  // unpack-class [out.class]: the third operand is a local output
  // path, not a request argument.
  std::string OutPath;
  if (*Op == serve::Opcode::UnpackClass && OpArgs.size() == 3) {
    OutPath = std::move(OpArgs.back());
    OpArgs.pop_back();
  }

  bool IsPort = !Endpoint.empty() &&
                Endpoint.find_first_not_of("0123456789") == std::string::npos;
  auto Conn = IsPort ? serve::Client::connectTcp(std::atoi(Endpoint.c_str()))
                     : serve::Client::connectUnix(Endpoint);
  if (!Conn) {
    fprintf(stderr, "packtool: %s\n", Conn.message().c_str());
    return 1;
  }
  auto Resp = Conn->call(*Op, std::move(OpArgs));
  if (!Resp) {
    fprintf(stderr, "packtool: %s\n", Resp.message().c_str());
    return 1;
  }
  if (Resp->St != serve::Status::Ok) {
    fprintf(stderr, "packtool: server: %s: %s\n",
            serve::statusName(Resp->St), Resp->text().c_str());
    return 1;
  }
  if (*Op == serve::Opcode::UnpackClass) {
    if (OutPath.empty()) {
      fwrite(Resp->Body.data(), 1, Resp->Body.size(), stdout);
    } else if (!writeFile(OutPath, Resp->Body)) {
      fprintf(stderr, "packtool: cannot write %s\n", OutPath.c_str());
      return 1;
    } else {
      printf("%s: %zu bytes\n", OutPath.c_str(), Resp->Body.size());
    }
    return 0;
  }
  std::string Text = Resp->text();
  fwrite(Text.data(), 1, Text.size(), stdout);
  if (!Text.empty() && Text.back() != '\n')
    printf("\n");
  return 0;
}

int cmdSelftest(const std::string &Dir) {
  CorpusSpec Spec;
  Spec.Name = "selftest";
  Spec.Seed = 7;
  Spec.NumClasses = 30;
  Spec.NumPackages = 3;
  std::vector<NamedClass> Classes = generateCorpus(Spec);
  std::string JarPath = Dir + "/demo.jar";
  if (!writeFile(JarPath, buildJar(Classes))) {
    fprintf(stderr, "packtool: cannot write %s\n", JarPath.c_str());
    return 1;
  }
  printf("wrote %s (%zu classes)\n", JarPath.c_str(), Classes.size());
  if (int Rc = cmdPack(JarPath, Dir + "/demo.cjp"))
    return Rc;
  if (int Rc = cmdUnpack(Dir + "/demo.cjp", Dir + "/demo-restored.jar"))
    return Rc;
  return cmdInfo(Dir + "/demo.cjp");
}

} // namespace

int main(int Argc, char **Argv) {
  // Pull out --threads N / --threads=N; what remains is the command.
  std::vector<std::string> Args;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--threads" && I + 1 < Argc) {
      NumThreads = static_cast<unsigned>(std::atoi(Argv[++I]));
    } else if (A.rfind("--threads=", 0) == 0) {
      NumThreads = static_cast<unsigned>(std::atoi(A.c_str() + 10));
    } else if (A == "--shards=auto") {
      ShardsOpt = 0;
    } else if (A.rfind("--shards=", 0) == 0) {
      ShardsOpt = std::atoi(A.c_str() + 9);
      if (ShardsOpt <= 0) {
        fprintf(stderr, "packtool: --shards wants a positive count or "
                        "'auto'\n");
        return 2;
      }
    } else if (A == "--indexed") {
      Indexed = true;
    } else if (A.rfind("--tune-for=", 0) == 0) {
      std::string Goal = A.substr(11);
      if (Goal == "size") {
        TuneFor = TuneGoal::Size;
      } else if (Goal == "speed") {
        TuneFor = TuneGoal::Speed;
      } else if (Goal == "balanced") {
        TuneFor = TuneGoal::Balanced;
      } else {
        fprintf(stderr, "packtool: --tune-for wants size, speed, or "
                        "balanced\n");
        return 2;
      }
    } else if (A == "--strip-unreferenced") {
      StripUnreferenced = true;
    } else if (A == "--verify" || A == "--verify=warn") {
      Lint = LintMode::Warn;
    } else if (A == "--verify=strict") {
      Lint = LintMode::Strict;
    } else if (A == "--backend" && I + 1 < Argc) {
      const CompressionBackend *B = findBackendByName(Argv[++I]);
      if (!B) {
        fprintf(stderr, "packtool: unknown backend '%s'\n", Argv[I]);
        return 2;
      }
      PackBackend = B->Id;
    } else if (A.rfind("--backend=", 0) == 0) {
      const CompressionBackend *B = findBackendByName(A.c_str() + 10);
      if (!B) {
        fprintf(stderr, "packtool: unknown backend '%s'\n", A.c_str() + 10);
        return 2;
      }
      PackBackend = B->Id;
    } else {
      Args.push_back(std::move(A));
    }
  }
  if (NumThreads == 0)
    NumThreads = 1;

  if (Args.size() >= 3 && Args[0] == "pack")
    return cmdPack(Args[1], Args[2]);
  if (Args.size() >= 3 && Args[0] == "unpack")
    return cmdUnpack(Args[1], Args[2]);
  if (Args.size() >= 2 && Args[0] == "list")
    return cmdList(Args[1]);
  if (Args.size() >= 3 && Args[0] == "unpack-class")
    return cmdUnpackClass(Args[1], Args[2],
                          Args.size() >= 4 ? Args[3] : std::string());
  if (Args.size() >= 2 && Args[0] == "info")
    return cmdInfo(Args[1]);
  if (Args.size() >= 2 && Args[0] == "verify")
    return cmdVerify(Args);
  if (Args.size() >= 2 && Args[0] == "lint")
    return cmdLint(Args);
  if (Args.size() >= 2 && Args[0] == "stats")
    return cmdStats(Args);
  if (Args.size() >= 3 && Args[0] == "tune")
    return cmdTune(Args[1], Args[2]);
  if (Args.size() >= 1 && Args[0] == "client")
    return cmdClient(Args);
  if (Args.size() >= 2 && Args[0] == "selftest")
    return cmdSelftest(Args[1]);
  if (Args.empty())
    return cmdSelftest("."); // run the demo when invoked bare
  fprintf(stderr,
          "usage: packtool [--threads N] [--shards=N|auto] [--indexed] "
          "[--backend=NAME] "
          "[--verify[=warn|strict]] [--strip-unreferenced] "
          "pack <in.jar> <out.cjp>\n"
          "       packtool [--threads N] unpack <in.cjp> <out.jar>\n"
          "       packtool list <in.cjp>\n"
          "       packtool unpack-class <in.cjp> <pkg/Name> [out.class]\n"
          "       packtool info <archive>\n"
          "       packtool verify [--warn] <in.class|jar|cjp>\n"
          "       packtool lint [--json] [--strict] <in.class|jar|cjp>\n"
          "       packtool stats [--indexed] <in.cjp|in.jar> [--json]\n"
          "       packtool [--tune-for=size|speed|balanced] tune "
          "<in.jar> <out.cjp>\n"
          "       packtool client <socket|port> <cmd> [args...]\n"
          "       packtool selftest <dir>\n"
          "backends: store, zlib (default), huffman, arith\n"
          "client commands: ping, pack, unpack, unpack-class, stat, "
          "verify, lint, metrics, flush\n");
  return 2;
}

//===- gen_seeds.cpp - seed corpus generator for the fuzz targets ---------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Writes a small, deterministic seed corpus for each fuzz target into
// <outdir>/<target>/: valid packed archives (single- and multi-shard,
// with and without stream compression), classfiles, zip/gzip containers,
// and coder byte streams. Run after changing the wire format or the
// encoder's output, then check the regenerated seeds in:
//
//   ./fuzz_seeds fuzz/corpus
//
// The *-level9.cjp seeds of fuzz_unpack and fuzz_reader are not written
// here. They are archives of the earlier encoder, which deflated every
// stream at level 9, kept so the decoders still start from both
// encodings.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "corpus/Rng.h"
#include "pack/Backend.h"
#include "pack/Packer.h"
#include "serve/Protocol.h"
#include "zip/ZipFile.h"
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace cjpack;

namespace {

void writeSeed(const std::filesystem::path &Dir, const std::string &Name,
               const std::vector<uint8_t> &Bytes) {
  std::filesystem::create_directories(Dir);
  std::ofstream Out(Dir / Name, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  printf("  %s/%s (%zu bytes)\n", Dir.string().c_str(), Name.c_str(),
         Bytes.size());
}

CorpusSpec smallSpec(uint64_t Seed) {
  CorpusSpec Spec;
  Spec.Name = "fuzzseed";
  Spec.Seed = Seed;
  Spec.NumClasses = 6;
  Spec.NumPackages = 2;
  Spec.MeanMethods = 4;
  Spec.MeanFields = 3;
  Spec.MeanStatements = 6;
  return Spec;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    fprintf(stderr, "usage: %s <outdir>\n", Argv[0]);
    return 1;
  }
  std::filesystem::path Out(Argv[1]);
  std::vector<NamedClass> Classes = generateCorpus(smallSpec(7));

  // fuzz_classfile: a few individual classfiles, plus the shapes whose
  // raw bytes differ most from their canonical form, so the pack half of
  // the target starts from them.
  for (size_t I = 0; I < Classes.size() && I < 3; ++I)
    writeSeed(Out / "fuzz_classfile", "class" + std::to_string(I) + ".bin",
              Classes[I].Data);
  {
    CorpusSpec Spec = smallSpec(7);
    Spec.NumClasses = 1;
    Spec.PctInterfaces = 0;
    NamedClass Base = generateCorpus(Spec)[0];
    for (const NamedClass &Shape : nonCanonicalShapes(Base))
      writeSeed(Out / "fuzz_classfile", Shape.Name + ".bin", Shape.Data);
  }

  // fuzz_verify: valid classfiles with branches, handlers, and wide
  // values, so mutation starts from code the analyzer fully walks.
  {
    CorpusSpec Spec = smallSpec(11);
    Spec.MeanStatements = 10;
    std::vector<NamedClass> Branchy = generateCorpus(Spec);
    for (size_t I = 0; I < Branchy.size() && I < 3; ++I)
      writeSeed(Out / "fuzz_verify", "class" + std::to_string(I) + ".bin",
                Branchy[I].Data);
  }

  // fuzz_unpack: archives across the wire-format matrix.
  struct {
    const char *Name;
    unsigned Shards;
    bool Compress;
    RefScheme Scheme;
  } Variants[] = {
      {"serial.cjp", 1, true, RefScheme::MtfTransientsContext},
      {"serial_raw.cjp", 1, false, RefScheme::MtfTransientsContext},
      {"sharded.cjp", 3, true, RefScheme::MtfTransientsContext},
      {"simple.cjp", 1, true, RefScheme::Simple},
      {"freq.cjp", 1, true, RefScheme::Freq},
  };
  for (const auto &V : Variants) {
    PackOptions Options;
    Options.Shards = V.Shards;
    Options.CompressStreams = V.Compress;
    Options.Scheme = V.Scheme;
    auto Packed = packClassBytes(Classes, Options);
    if (!Packed) {
      fprintf(stderr, "pack %s failed: %s\n", V.Name,
              Packed.message().c_str());
      return 1;
    }
    writeSeed(Out / "fuzz_unpack", V.Name, Packed->Archive);
  }

  // fuzz_reader and fuzz_unpack: version-3 indexed archives across
  // shard counts and both stream-compression settings, so mutation
  // starts from inputs whose index, dictionary, and blob framing all
  // validate. unpackClasses decodes version 3 too, through the reader.
  struct {
    const char *Name;
    unsigned Shards;
    bool Compress;
  } IndexedVariants[] = {
      {"indexed_s1.cjp", 1, true},
      {"indexed_s3.cjp", 3, true},
      {"indexed_s3_raw.cjp", 3, false},
  };
  for (const auto &V : IndexedVariants) {
    PackOptions Options;
    Options.Shards = V.Shards;
    Options.CompressStreams = V.Compress;
    Options.RandomAccessIndex = true;
    auto Packed = packClassBytes(Classes, Options);
    if (!Packed) {
      fprintf(stderr, "pack %s failed: %s\n", V.Name,
              Packed.message().c_str());
      return 1;
    }
    writeSeed(Out / "fuzz_reader", V.Name, Packed->Archive);
    writeSeed(Out / "fuzz_unpack", V.Name, Packed->Archive);
  }

  // fuzz_zip: stored and deflated jars plus a gzip frame.
  std::vector<ZipEntry> Entries;
  for (size_t I = 0; I < Classes.size() && I < 3; ++I)
    Entries.push_back({Classes[I].Name, Classes[I].Data});
  writeSeed(Out / "fuzz_zip", "deflated.zip",
            writeZip(Entries, ZipMethod::Deflated));
  writeSeed(Out / "fuzz_zip", "stored.zip",
            writeZip(Entries, ZipMethod::Stored));
  writeSeed(Out / "fuzz_zip", "frame.gz", gzipBytes(Classes[0].Data));

  // fuzz_coder: packed stream bytes (scheme selector byte + payload).
  {
    PackOptions Options;
    auto Packed = packClassBytes(Classes, Options);
    if (!Packed) {
      fprintf(stderr, "pack for coder seed failed\n");
      return 1;
    }
    for (uint8_t Scheme = 0; Scheme < 8; Scheme += 3) {
      std::vector<uint8_t> Seed;
      Seed.push_back(Scheme);
      size_t Take = Packed->Archive.size() < 512 ? Packed->Archive.size()
                                                 : size_t(512);
      Seed.insert(Seed.end(), Packed->Archive.begin() + 7,
                  Packed->Archive.begin() +
                      static_cast<std::ptrdiff_t>(Take));
      writeSeed(Out / "fuzz_coder",
                "scheme" + std::to_string(Scheme) + ".bin", Seed);
    }
    // Round-trip streams for the four MTF schemes: the selector byte
    // (+8 preloads both sides) and two bytes per reference, (pool |
    // sub << 3, object), skewed like real method references.
    for (uint8_t Scheme = 4; Scheme < 8; ++Scheme) {
      Rng R(Scheme);
      std::vector<uint8_t> Seed{
          static_cast<uint8_t>(Scheme + (Scheme % 2 ? 8 : 0))};
      for (int I = 0; I < 400; ++I) {
        uint64_t Pool = R.below(4);
        uint64_t Sub = R.zipf(6);
        Seed.push_back(static_cast<uint8_t>(Pool | Sub << 3));
        Seed.push_back(static_cast<uint8_t>(R.zipf(200)));
      }
      writeSeed(Out / "fuzz_coder",
                "roundtrip" + std::to_string(Scheme) + ".bin", Seed);
    }
  }

  // fuzz_backend: backend id byte + that backend's own compressed
  // output for a classfile slice (compressed as the Counts stream, which
  // zlib deflates at level 9), so mutation starts from blobs every
  // decoder fully walks (Huffman table + bitstream, arithmetic frame,
  // zlib stream, stored run).
  {
    std::vector<uint8_t> Sample(Classes[0].Data.begin(),
                                Classes[0].Data.begin() +
                                    std::min<size_t>(
                                        Classes[0].Data.size(), 1024));
    for (const CompressionBackend &B : allBackends()) {
      std::vector<uint8_t> Seed;
      Seed.push_back(static_cast<uint8_t>(B.Id));
      std::vector<uint8_t> Stored = B.Compress(Sample, StreamId::Counts);
      Seed.insert(Seed.end(), Stored.begin(), Stored.end());
      writeSeed(Out / "fuzz_backend", std::string(B.Name) + ".bin", Seed);
    }
  }

  // fuzz_lint: inputs for the whole-archive analyzer — a packed archive
  // whose corpus exercises inherited refs and seeded dead members, plus
  // a lone classfile for the single-class (duplicate-name) path.
  {
    CorpusSpec Spec = smallSpec(13);
    Spec.PctInheritedRefs = 30;
    Spec.DeadMembersPerClass = 1;
    std::vector<NamedClass> LintClasses = generateCorpus(Spec);
    PackOptions Options;
    auto Packed = packClassBytes(LintClasses, Options);
    if (!Packed) {
      fprintf(stderr, "pack for lint seed failed: %s\n",
              Packed.message().c_str());
      return 1;
    }
    writeSeed(Out / "fuzz_lint", "archive.cjp", Packed->Archive);
    writeSeed(Out / "fuzz_lint", "class0.bin", LintClasses[0].Data);
  }

  // fuzz_serve: encoded wire-protocol requests across the opcode and
  // argument-shape matrix, plus a response payload, so mutation starts
  // from inputs every protocol branch accepts.
  {
    using namespace cjpack::serve;
    struct {
      const char *Name;
      Opcode Op;
      std::vector<std::string> Args;
    } Requests[] = {
        {"ping.bin", Opcode::Ping, {}},
        {"pack.bin", Opcode::Pack, {"/tmp/in.jar", "/tmp/out.cjp"}},
        {"unpack_class.bin",
         Opcode::UnpackClass,
         {"/tmp/app.cjp", "com/example/Main"}},
        {"stat.bin", Opcode::Stat, {"/tmp/app.cjp"}},
        {"metrics.bin", Opcode::Metrics, {}},
        {"empty_arg.bin", Opcode::Verify, {""}},
    };
    for (auto &R : Requests) {
      Request Req;
      Req.Op = R.Op;
      Req.Args = R.Args;
      writeSeed(Out / "fuzz_serve", R.Name, encodeRequest(Req));
    }
    Response Resp = Response::ok("requests 3\ncache_hits 2\n");
    writeSeed(Out / "fuzz_serve", "response_ok.bin",
              encodeResponse(Resp));
    writeSeed(Out / "fuzz_serve", "response_fail.bin",
              encodeResponse(Response::fail(Status::LimitExceeded,
                                            "frame over cap")));
  }
  return 0;
}

//===- Decoder.cpp - packed archive decoder -------------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The decoder mirrors the encoder's preorder traversal exactly because
// both run the SAME traversal: the shared Transcriber (Transcode.h)
// instantiated for the decode direction. The same streams are read in
// the same order, the same approximate stack state machine resolves
// collapsed pseudo-opcodes, and the reference decoder's queues evolve in
// lock step with the encoder's. This file owns what is genuinely
// decode-only: archive-level orchestration (dictionary, shards, and the
// version dispatch that sends version 3 through PackedArchiveReader).
// The header and frame codec lives in ArchiveFormat.cpp; classfile
// materialization — §9 ldc-first constant placement and the §12
// canonical pool — lives in Materialize.cpp. Both are shared with the
// lazy reader.
//
//===----------------------------------------------------------------------===//

#include "analysis/ArchiveAnalysis.h"
#include "analysis/Verifier.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "pack/ArchiveReader.h"
#include "pack/Materialize.h"
#include "pack/Packer.h"
#include "pack/Transcode.h"
#include "support/ThreadPool.h"
#include "zip/Manifest.h"
#include "zip/ZipFile.h"

using namespace cjpack;

namespace {

/// Decodes one shard's streams (the whole body of a version-1 archive,
/// or one slice of a version-2 grouped container) into classfiles.
/// Each shard carries an independent model and reference state, so
/// shards decode with no shared mutable state; \p Dict (the version-2
/// shared dictionary, may be null) is replayed into each shard's model
/// before decoding, mirroring the encoder.
Expected<std::vector<ClassFile>>
decodeShardStreams(StreamSet &S, const ArchiveHeader &H,
                   const SharedDictionary *Dict,
                   const DecodeLimits &Limits) {
  auto Dec = makeRefDecoder(H.Scheme);
  Model M;
  if (auto E = seedShardModel(M, *Dec, H, Dict))
    return E;

  DecodeContext C{M, *Dec, S, H.Scheme, Limits};
  Transcriber<DecodeContext> Reader(C);
  std::vector<ClassRec> Decoded;
  if (auto E = Reader.transcodeArchive(Decoded))
    return E;

  std::vector<ClassFile> Out;
  Out.reserve(Decoded.size());
  for (const ClassRec &DC : Decoded) {
    auto CF = materializeClass(M, DC);
    if (!CF)
      return CF.takeError();
    Out.push_back(std::move(*CF));
  }
  return Out;
}

} // namespace

Expected<std::vector<ClassFile>>
cjpack::unpackClasses(std::span<const uint8_t> Archive,
                      unsigned Threads) {
  UnpackOptions Options;
  Options.Threads = Threads;
  return unpackClasses(Archive, Options);
}

Expected<std::vector<ClassFile>>
cjpack::unpackClasses(std::span<const uint8_t> Archive,
                      const UnpackOptions &Options) {
  const DecodeLimits &Limits = Options.Limits;
  ByteReader R(Archive);
  auto Header = readArchiveHeader(R);
  if (!Header)
    return Header.takeError();
  const ArchiveHeader &H = *Header;

  if (H.Version == FormatVersionIndexed) {
    // The reader runs every index check and charges its own budget, one
    // per call here. Materialized classes own their bytes, so they
    // outlive it.
    auto Reader =
        PackedArchiveReader::open(Archive.data(), Archive.size(), Limits);
    if (!Reader)
      return Reader.takeError();
    return Reader->unpackAll(Options.Threads);
  }

  // One inflate budget for the whole call. Every inflate below runs
  // serially, before any shard decodes, so the budget is charged in the
  // same order for any thread count.
  DecodeBudget Budget(Limits);
  if (H.Version == FormatVersionSerial) {
    StreamSet S;
    if (auto E = S.deserialize(R, Limits, &Budget))
      return E;
    return decodeShardStreams(S, H, /*Dict=*/nullptr, Limits);
  }

  auto Dict = SharedDictionary::deserialize(R, Limits, &Budget);
  if (!Dict)
    return Dict.takeError();

  auto Shards = deserializeShardedStreams(R, Limits, &Budget);
  if (!Shards)
    return Shards.takeError();

  // Decode every shard into its own slot; concatenation in shard order,
  // and the first failing shard's error, keep the result identical for
  // any thread count.
  std::vector<std::vector<ClassFile>> Decoded(Shards->size());
  std::vector<Error> Failed(Shards->size());
  parallelFor(Shards->size(), Options.Threads, [&](size_t K) {
    auto Shard = decodeShardStreams((*Shards)[K], H, &*Dict, Limits);
    if (Shard)
      Decoded[K] = std::move(*Shard);
    else
      Failed[K] = Shard.takeError();
  });
  if (Error E = firstFailure(Failed))
    return E;
  std::vector<ClassFile> Out;
  for (std::vector<ClassFile> &Shard : Decoded)
    for (ClassFile &CF : Shard)
      Out.push_back(std::move(CF));
  return Out;
}

Expected<Manifest>
cjpack::manifestForPackedArchive(std::span<const uint8_t> Archive) {
  auto Classes = unpackArchive(Archive);
  if (!Classes)
    return Classes.takeError();
  return buildManifest(*Classes);
}

Expected<std::vector<NamedClass>>
cjpack::unpackArchive(std::span<const uint8_t> Archive,
                      unsigned Threads) {
  UnpackOptions Options;
  Options.Threads = Threads;
  return unpackArchive(Archive, Options);
}

Expected<std::vector<NamedClass>>
cjpack::unpackArchive(std::span<const uint8_t> Archive,
                      const UnpackOptions &Options) {
  auto Classes = unpackClasses(Archive, Options);
  if (!Classes)
    return Classes.takeError();
  std::vector<NamedClass> Out;
  Out.reserve(Classes->size());
  for (const ClassFile &CF : *Classes) {
    NamedClass C;
    C.Name = std::string(CF.thisClassName()) + ".class";
    C.Data = writeClassFile(CF);
    Out.push_back(std::move(C));
  }
  return Out;
}

Expected<std::vector<NamedClass>>
cjpack::loadClassSet(std::span<const uint8_t> Bytes, const std::string &Name,
                     const UnpackOptions &Options) {
  ByteReader R(Bytes);
  if (R.readU4() == 0xCAFEBABEu && !R.hasError())
    return std::vector<NamedClass>{
        {Name, std::vector<uint8_t>(Bytes.begin(), Bytes.end())}};
  if (hasArchiveMagic(Bytes))
    return unpackArchive(Bytes, Options);
  auto Entries = readZip(Bytes, Options.Limits);
  if (!Entries)
    return makeError(Entries.code(),
                     Name + " is neither a classfile, a packed archive, "
                            "nor a zip: " +
                         Entries.message());
  std::vector<NamedClass> Classes;
  for (ZipEntry &E : *Entries)
    if (E.Name.size() > 6 && E.Name.ends_with(".class"))
      Classes.push_back(std::move(E));
  return Classes;
}

void cjpack::parseClassSet(const std::vector<NamedClass> &Classes,
                           const DecodeLimits &Limits,
                           std::vector<ClassFile> &Parsed,
                           std::vector<std::string> &Names,
                           std::vector<analysis::Diagnostic> &Diags) {
  for (const NamedClass &C : Classes) {
    auto CF = parseClassFile(C.Data, Limits);
    if (!CF) {
      Diags.push_back({analysis::DiagKind::MalformedCode, C.Name,
                       analysis::NoOffset,
                       "classfile does not parse: " + CF.message()});
      continue;
    }
    Parsed.push_back(std::move(*CF));
    Names.push_back(C.Name);
  }
}

std::vector<std::vector<analysis::Diagnostic>>
cjpack::verifyClassSet(const std::vector<ClassFile> &Classes) {
  analysis::ClassHierarchy H = analysis::ClassHierarchy::build(Classes);
  std::vector<std::vector<analysis::Diagnostic>> Diags;
  Diags.reserve(Classes.size());
  for (const ClassFile &CF : Classes)
    Diags.push_back(analysis::verifyClass(CF, &H).Diags);
  return Diags;
}

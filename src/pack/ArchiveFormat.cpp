//===- ArchiveFormat.cpp - archive header and frame codec -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/ArchiveFormat.h"
#include "pack/Backend.h"
#include "pack/Preload.h"
#include "pack/Streams.h"
#include "support/VarInt.h"

using namespace cjpack;

namespace {

/// "CJPK", big-endian.
constexpr uint32_t ArchiveMagic = 0x434A504Bu;
/// Flag-byte bits below the backend code.
constexpr uint8_t FlagCollapse = 1, FlagCompress = 2, FlagPreload = 4;

} // namespace

bool cjpack::hasArchiveMagic(std::span<const uint8_t> Bytes) {
  ByteReader R(Bytes);
  return R.readU4() == ArchiveMagic && !R.hasError();
}

void cjpack::writeArchiveHeader(ByteWriter &W, const ArchiveHeader &H) {
  W.writeU4(ArchiveMagic);
  W.writeU1(H.Version);
  W.writeU1(static_cast<uint8_t>(H.Scheme));
  uint8_t Flags = static_cast<uint8_t>(H.BackendCode << BackendFlagShift);
  if (H.CollapseOpcodes)
    Flags |= FlagCollapse;
  if (H.CompressStreams)
    Flags |= FlagCompress;
  if (H.PreloadStandardRefs)
    Flags |= FlagPreload;
  W.writeU1(Flags);
}

Expected<ArchiveHeader> cjpack::readArchiveHeader(ByteReader &R) {
  uint32_t Magic = R.readU4();
  if (!R.hasError() && Magic != ArchiveMagic)
    return makeError(ErrorCode::Corrupt, "archive: bad magic");
  ArchiveHeader H;
  H.Version = R.readU1();
  uint8_t Scheme = R.readU1();
  uint8_t Flags = R.readU1();
  if (R.hasError())
    return makeError(ErrorCode::Truncated, "archive: truncated header");
  if (H.Version != FormatVersionSerial && H.Version != FormatVersionSharded &&
      H.Version != FormatVersionIndexed)
    return makeError(ErrorCode::VersionMismatch,
                     "archive: unsupported format version " +
                         std::to_string(H.Version));
  if (Scheme > static_cast<uint8_t>(RefScheme::MtfTransientsContext))
    return makeError(ErrorCode::Corrupt, "archive: unknown reference scheme");
  H.Scheme = static_cast<RefScheme>(Scheme);
  H.CollapseOpcodes = (Flags & FlagCollapse) != 0;
  H.CompressStreams = (Flags & FlagCompress) != 0;
  H.PreloadStandardRefs = (Flags & FlagPreload) != 0;
  H.BackendCode = (Flags >> BackendFlagShift) & BackendFlagMask;
  if (H.BackendCode > ArchiveBackendMixed)
    return makeError(ErrorCode::Corrupt,
                     "archive: unknown archive backend code");
  return H;
}

Expected<IndexedFrames> cjpack::readIndexedFrames(ByteReader &R,
                                                  const DecodeLimits &Limits,
                                                  DecodeBudget *Budget) {
  IndexedFrames F;
  size_t IndexStart = R.position();
  uint64_t IndexLen = readVarUInt(R);
  if (R.hasError())
    return R.takeError("archive");
  if (IndexLen > R.remaining())
    return makeError(ErrorCode::Truncated,
                     "archive: index frame extends past end of archive");
  if (IndexLen > Limits.MaxStreamBytes)
    return makeError(ErrorCode::LimitExceeded,
                     "archive: index frame length over limit");
  ByteReader IndexR(R.readSpan(static_cast<size_t>(IndexLen)));
  auto Index = ArchiveIndex::deserialize(IndexR, Limits);
  if (!Index)
    return Index.takeError();
  F.Index = std::move(*Index);
  F.IndexBytes = R.position() - IndexStart;

  size_t DictStart = R.position();
  auto Dict = SharedDictionary::deserialize(R, Limits, Budget);
  if (!Dict)
    return Dict.takeError();
  F.Dict = std::move(*Dict);
  F.DictionaryBytes = R.position() - DictStart;
  F.BlobBase = R.position();

  // The shard extents must tile the remainder of the archive exactly;
  // the index already proved them contiguous from zero.
  uint64_t BlobBytes = F.Index.blobBytes();
  if (BlobBytes > R.remaining())
    return makeError(ErrorCode::Truncated,
                     "archive: shard blobs extend past end of archive");
  if (BlobBytes < R.remaining())
    return makeError(ErrorCode::Corrupt,
                     "archive: trailing bytes after shard blobs");
  return F;
}

Error cjpack::seedShardModel(Model &M, RefDecoder &Dec,
                             const ArchiveHeader &H,
                             const SharedDictionary *Dict) {
  if (H.PreloadStandardRefs && !preloadStandardRefs(M, Dec, H.Scheme))
    return makeError(ErrorCode::Corrupt,
                     "archive: header asks for preloaded references the "
                     "scheme cannot provide");
  if (Dict && !Dict->empty() && !preloadDictionary(M, Dec, *Dict))
    return makeError(ErrorCode::Corrupt,
                     "archive: dictionary needs a scheme that supports "
                     "preloaded references");
  return Error::success();
}

//===- ArchiveFormat.h - archive header and frame codec --------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader and writer of the framing packed archives share: the
/// 7-byte header, the version-3 index and dictionary frames, and the
/// seeding of a shard's model before its first class decodes. The
/// whole-archive decoder, the lazy reader, and the stats walk all go
/// through it, so they reject the same bytes with the same error codes.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_ARCHIVEFORMAT_H
#define CJPACK_PACK_ARCHIVEFORMAT_H

#include "coder/RefCoder.h"
#include "pack/ArchiveIndex.h"
#include "pack/Dictionary.h"
#include "support/ByteBuffer.h"
#include "support/DecodeLimits.h"
#include "support/Error.h"
#include <cstdint>
#include <span>

namespace cjpack {

class Model;

/// The header every format version starts with, decoded: magic "CJPK",
/// version, scheme, then a flag byte (bit 0 collapse, bit 1 compress,
/// bit 2 preload, bits 3..5 the advisory backend code of Backend.h).
struct ArchiveHeader {
  uint8_t Version = 0;
  RefScheme Scheme = RefScheme::MtfTransientsContext;
  bool CollapseOpcodes = false;
  bool CompressStreams = false;
  bool PreloadStandardRefs = false;
  uint8_t BackendCode = 0;
};

/// True when \p Bytes starts with the archive magic.
bool hasArchiveMagic(std::span<const uint8_t> Bytes);

/// Writes \p H as the 7-byte header.
void writeArchiveHeader(ByteWriter &W, const ArchiveHeader &H);

/// Reads and validates the header at \p R's position. A wrong magic is
/// Corrupt, a header cut short Truncated (whatever the missing bytes
/// would hold), an unknown version VersionMismatch, and an unknown
/// scheme or reserved backend code Corrupt.
Expected<ArchiveHeader> readArchiveHeader(ByteReader &R);

/// The validated frames between a version-3 header and its shard blobs.
struct IndexedFrames {
  ArchiveIndex Index;
  SharedDictionary Dict;
  /// Bytes of the index frame including its length prefix.
  size_t IndexBytes = 0;
  size_t DictionaryBytes = 0;
  /// Archive offset of the blob region.
  size_t BlobBase = 0;

  /// Shard \p K's blob within \p Archive, the bytes read.
  std::span<const uint8_t> blob(std::span<const uint8_t> Archive,
                                size_t K) const {
    const ArchiveIndex::ShardExtent &E = Index.Shards[K];
    return Archive.subspan(BlobBase + E.Offset,
                           static_cast<size_t>(E.Length));
  }
};

/// Reads the frames that follow a version-3 header; \p R spans the
/// whole archive and sits just past the header. Checks that the index's
/// shard extents tile the rest of the archive exactly. Inflates nothing
/// but a compressed dictionary frame, which is charged to \p Budget
/// when non-null.
Expected<IndexedFrames> readIndexedFrames(ByteReader &R,
                                          const DecodeLimits &Limits,
                                          DecodeBudget *Budget = nullptr);

/// Seeds a shard's model and reference decoder the way the encoder
/// seeded them: the §14 standard table when \p H asks for it, then the
/// shared dictionary (\p Dict; null or empty for none).
Error seedShardModel(Model &M, RefDecoder &Dec, const ArchiveHeader &H,
                     const SharedDictionary *Dict);

} // namespace cjpack

#endif // CJPACK_PACK_ARCHIVEFORMAT_H

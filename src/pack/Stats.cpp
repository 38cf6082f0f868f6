//===- Stats.cpp - archive inspection without decoding --------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Stats.h"
#include "pack/ArchiveFormat.h"
#include "support/VarInt.h"

using namespace cjpack;

namespace {

/// Walks one complete stream directory (all NumStreams entries, nothing
/// after them) without inflating, adding each entry to \p Stats.
/// \p ShardCount distinguishes the version-1 layout (one raw length per
/// entry) from the version-2 joint layout (one per shard). Accumulating
/// lets the version-3 walk roll the totals up across shard blobs.
Error statDirectory(ByteReader &R, size_t ShardCount,
                    const DecodeLimits &Limits, ArchiveStats &Stats) {
  std::vector<uint64_t> Lens(ShardCount);
  for (unsigned I = 0; I < NumStreams; ++I) {
    size_t Start = R.position();
    auto E = readStreamEntry(R, I, Lens, Limits);
    if (!E)
      return E.takeError();
    // Each stream is charged its directory header too, so packed sizes
    // sum to the payload.
    size_t Packed = R.position() - Start;
    Stats.Sizes.Raw[I] += static_cast<size_t>(E->RawTotal);
    Stats.Sizes.Packed[I] += Packed;
    Stats.BackendPacked[E->Method] += Packed;
    Stats.BackendStreams[E->Method] += 1;
  }
  if (!R.atEnd())
    return makeError(ErrorCode::Corrupt,
                     "stats: trailing bytes after stream directory");
  return Error::success();
}

} // namespace

Expected<ArchiveStats>
cjpack::statPackedArchive(const std::vector<uint8_t> &Archive,
                          const DecodeLimits &Limits) {
  ByteReader R(Archive);
  auto Header = readArchiveHeader(R);
  if (!Header)
    return Header.takeError();
  ArchiveStats Stats;
  Stats.ArchiveBytes = Archive.size();
  Stats.Version = Header->Version;
  Stats.Scheme = Header->Scheme;
  Stats.CollapseOpcodes = Header->CollapseOpcodes;
  Stats.CompressStreams = Header->CompressStreams;
  Stats.PreloadStandardRefs = Header->PreloadStandardRefs;
  Stats.BackendCode = Header->BackendCode;
  Stats.HeaderBytes = R.position();

  if (Stats.Version == FormatVersionIndexed) {
    // Version 3: the index frame (its length prefix charged to
    // IndexBytes, matching PackResult::IndexBytes: all bytes that exist
    // only for random access), the dictionary frame, then one complete
    // stream directory per shard blob. The index is authoritative for
    // the blob extents; the walk checks every blob parses to exactly
    // its indexed length.
    auto Frames = readIndexedFrames(R, Limits);
    if (!Frames)
      return Frames.takeError();
    Stats.IndexBytes = Frames->IndexBytes;
    Stats.IndexedClasses = Frames->Index.Classes.size();
    Stats.Shards = Frames->Index.Shards.size();
    Stats.DictionaryBytes = Frames->DictionaryBytes;
    Stats.DictionaryEntries = Frames->Dict.entryCount();
    for (size_t K = 0; K < Stats.Shards; ++K) {
      ByteReader Blob(Frames->blob(Archive, K));
      if (auto Err = statDirectory(Blob, /*ShardCount=*/1, Limits, Stats))
        return Err;
    }
    return Stats;
  }

  if (Stats.Version == FormatVersionSharded) {
    // The dictionary frame validates itself; we only need its extent
    // and entry count, so deserialize and discard the contents.
    size_t DictStart = R.position();
    auto Dict = SharedDictionary::deserialize(R, Limits);
    if (!Dict)
      return Dict.takeError();
    Stats.DictionaryBytes = R.position() - DictStart;
    Stats.DictionaryEntries = Dict->entryCount();

    // The shard-count varint is container framing, charged to the
    // header so the per-stream packed sizes still sum to the payload.
    size_t CountStart = R.position();
    uint64_t Count = readVarUInt(R);
    if (R.hasError() || Count == 0 || Count > MaxShards)
      return makeError(ErrorCode::Corrupt,
                       "stats: implausible shard count at byte " +
                           std::to_string(R.position()));
    Stats.HeaderBytes += R.position() - CountStart;
    Stats.Shards = static_cast<size_t>(Count);
  }

  if (auto Err = statDirectory(R, Stats.Shards, Limits, Stats))
    return Err;
  return Stats;
}

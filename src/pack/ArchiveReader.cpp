//===- ArchiveReader.cpp - lazy reader for v3 archives --------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/ArchiveReader.h"
#include "pack/Materialize.h"
#include "pack/Streams.h"
#include "pack/Transcode.h"

using namespace cjpack;

/// One shard's decode state, built lazily from its blob. Heap-allocated
/// and never moved, so the DecodeContext's references into it stay
/// valid for the reader's lifetime.
struct PackedArchiveReader::ShardState {
  /// Serializes preparation, decode, and materialization against this
  /// shard: the adaptive coder state is sequential by construction and
  /// materialization reads the model another decode could be growing.
  std::mutex Mu;
  /// True once prepareShardLocked ran (successfully or not).
  bool Prepared = false;
  StreamSet S;
  Model M;
  std::unique_ptr<RefDecoder> Dec;
  std::unique_ptr<DecodeContext> Ctx;
  std::unique_ptr<Transcriber<DecodeContext>> T;
  /// Decoded record prefix; Recs[i] is the class at ordinal i.
  std::vector<ClassRec> Recs;
  /// Class count the shard's own directory declares.
  size_t Declared = 0;
  /// Latched first failure. The adaptive coder state is unrecoverable
  /// mid-stream, so every later request sees the same error.
  Error Fail;
};

PackedArchiveReader::PackedArchiveReader() = default;
PackedArchiveReader::PackedArchiveReader(PackedArchiveReader &&) noexcept =
    default;
PackedArchiveReader &
PackedArchiveReader::operator=(PackedArchiveReader &&) noexcept = default;
PackedArchiveReader::~PackedArchiveReader() = default;

Expected<PackedArchiveReader>
PackedArchiveReader::open(const std::vector<uint8_t> &Archive,
                          const DecodeLimits &Limits) {
  return open(Archive.data(), Archive.size(), Limits);
}

Expected<PackedArchiveReader>
PackedArchiveReader::open(const uint8_t *Data, size_t Size,
                          const DecodeLimits &Limits) {
  PackedArchiveReader Rd;
  Rd.Archive = {Data, Size};
  Rd.Limits = Limits;
  Rd.Budget.reset(new DecodeBudget(Limits));
  Rd.StatesMu.reset(new std::mutex());

  ByteReader R(Data, Size);
  auto Header = readArchiveHeader(R);
  if (!Header)
    return Header.takeError();
  if (Header->Version != FormatVersionIndexed)
    return makeError(ErrorCode::VersionMismatch,
                     "reader: version " + std::to_string(Header->Version) +
                         " archive has no index; decode it with "
                         "unpackClasses");
  Rd.Header = *Header;

  // The dictionary frame is the only inflate open() ever charges.
  auto Frames = readIndexedFrames(R, Limits, Rd.Budget.get());
  if (!Frames)
    return Frames.takeError();
  Rd.Frames = std::move(*Frames);
  Rd.States.resize(Rd.Frames.Index.Shards.size());
  return Rd;
}

PackedArchiveReader::ShardState *PackedArchiveReader::shardSlot(size_t K) {
  std::lock_guard<std::mutex> Lock(*StatesMu);
  if (!States[K])
    States[K].reset(new ShardState());
  return States[K].get();
}

Error PackedArchiveReader::prepareShardLocked(ShardState &St, size_t K) {
  ByteReader R(Frames.blob(Archive, K));
  if (auto Err = St.S.deserialize(R, Limits, Budget.get()))
    return Err;
  if (!R.atEnd())
    return makeError(ErrorCode::Corrupt,
                     "reader: trailing bytes in shard blob");
  St.Dec = makeRefDecoder(Header.Scheme);
  if (auto Err = seedShardModel(St.M, *St.Dec, Header, &Frames.Dict))
    return Err;
  St.Ctx.reset(
      new DecodeContext{St.M, *St.Dec, St.S, Header.Scheme, Limits});
  St.T.reset(new Transcriber<DecodeContext>(*St.Ctx));
  return St.T->beginArchive(St.Declared);
}

Error PackedArchiveReader::decodeUpTo(ShardState &St, uint32_t Ordinal) {
  while (St.Recs.size() <= Ordinal) {
    ClassRec R;
    if (auto E = St.T->transcodeOneClass(R)) {
      St.Fail = E;
      return E;
    }
    St.Recs.push_back(std::move(R));
  }
  return Error::success();
}

Expected<ClassFile>
PackedArchiveReader::materializeEntry(const ArchiveIndex::ClassEntry &E) {
  ShardState &St = *shardSlot(E.Shard);
  // Hold the shard lock through materialization: another thread's
  // decodeUpTo on this shard grows St.M and St.Recs, which
  // materializeClass reads.
  std::lock_guard<std::mutex> Lock(St.Mu);
  if (!St.Prepared) {
    St.Fail = prepareShardLocked(St, E.Shard);
    St.Prepared = true;
  }
  if (St.Fail)
    return St.Fail;
  if (E.Ordinal >= St.Declared)
    return makeError(ErrorCode::Corrupt,
                     "reader: index claims more classes than the shard "
                     "directory declares");
  if (auto Err = decodeUpTo(St, E.Ordinal))
    return Err;
  const ClassRec &Rec = St.Recs[E.Ordinal];
  if (St.M.classRefInternalName(Rec.ThisId) != E.Name)
    return makeError(ErrorCode::Corrupt,
                     "reader: index entry '" + E.Name +
                         "' names a different class");
  return materializeClass(St.M, Rec);
}

Expected<ClassFile>
PackedArchiveReader::unpackClass(const std::string &InternalName) {
  const ArchiveIndex::ClassEntry *E = Frames.Index.find(InternalName);
  if (!E)
    return Error::failure("reader: class '" + InternalName +
                          "' not in archive index");
  return materializeEntry(*E);
}

Expected<std::vector<ClassFile>> PackedArchiveReader::unpackAll() {
  std::vector<ClassFile> Out;
  Out.reserve(Frames.Index.Classes.size());
  for (const ArchiveIndex::ClassEntry &E : Frames.Index.Classes) {
    auto CF = materializeEntry(E);
    if (!CF)
      return CF.takeError();
    Out.push_back(std::move(*CF));
  }
  return Out;
}

std::vector<std::string> PackedArchiveReader::classNames() const {
  std::vector<std::string> Names;
  Names.reserve(Frames.Index.Classes.size());
  for (const ArchiveIndex::ClassEntry &E : Frames.Index.Classes)
    Names.push_back(E.Name);
  return Names;
}

uint64_t PackedArchiveReader::inflatedBytes() const {
  return Budget->inflateSpent();
}

//===- ArchiveReader.cpp - lazy reader for v3 archives --------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/ArchiveReader.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "pack/Materialize.h"
#include "pack/Streams.h"
#include "pack/Transcode.h"
#include "support/ThreadPool.h"
#include <cassert>
#include <cstdint>

using namespace cjpack;

/// One shard's decode state, built lazily from its blob. Heap-allocated
/// and never moved, so the DecodeContext's references into it stay
/// valid until unpackClassBytes drops them all at once.
struct PackedArchiveReader::ShardState {
  /// Serializes preparation, decode, materialization and every read of
  /// the held records and bytes against this shard: the adaptive coder
  /// state is sequential by construction and materialization reads the
  /// model another decode could be growing.
  std::mutex Mu;
  /// True once inflateShardLocked ran (successfully or not).
  bool Inflated = false;
  /// True once prepareShardLocked ran past the inflate.
  bool Prepared = false;
  StreamSet S;
  Model M;
  std::unique_ptr<RefDecoder> Dec;
  std::unique_ptr<DecodeContext> Ctx;
  std::unique_ptr<Transcriber<DecodeContext>> T;
  /// Decoded record prefix; Recs[i] is the class at ordinal i until
  /// Bytes[i] holds it, which releases the record.
  std::vector<ClassRec> Recs;
  /// Bytes[i] is the restored classfile of ordinal i once
  /// unpackClassBytes served it; empty (no classfile is) until then.
  std::vector<std::vector<uint8_t>> Bytes;
  /// Ordinals held as bytes. At Declared, nothing is left to decode.
  size_t NumBytes = 0;
  /// Class count the shard's own directory declares.
  size_t Declared = 0;
  /// Latched first failure. The adaptive coder state is unrecoverable
  /// mid-stream, so every later request sees the same error.
  Error Fail;

  /// The kept bytes of \p Ordinal, or null while it is a record.
  const std::vector<uint8_t> *kept(uint32_t Ordinal) const {
    return Ordinal < Bytes.size() && !Bytes[Ordinal].empty() ? &Bytes[Ordinal]
                                                             : nullptr;
  }
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

Error PackedArchiveReader::inflateShardLocked(ShardState &St, size_t K) {
  if (!St.Inflated) {
    St.Inflated = true;
    ByteReader R(Frames.blob(Archive, K));
    St.Fail = St.S.deserialize(R, Limits, Budget.get());
    if (!St.Fail && !R.atEnd())
      St.Fail = makeError(ErrorCode::Corrupt,
                          "reader: trailing bytes in shard blob");
  }
  return St.Fail;
}

Error PackedArchiveReader::prepareShardLocked(ShardState &St, size_t K) {
  if (St.Prepared || inflateShardLocked(St, K))
    return St.Fail;
  St.Prepared = true;
  St.Dec = makeRefDecoder(Header.Scheme);
  St.Fail = seedShardModel(St.M, *St.Dec, Header, &Frames.Dict);
  if (!St.Fail) {
    St.Ctx.reset(
        new DecodeContext{St.M, *St.Dec, St.S, Header.Scheme, Limits});
    St.T.reset(new Transcriber<DecodeContext>(*St.Ctx));
    St.Fail = St.T->beginArchive(St.Declared);
  }
  return St.Fail;
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

Error PackedArchiveReader::readyLocked(ShardState &St,
                                       const ArchiveIndex::ClassEntry &E) {
  if (auto Err = prepareShardLocked(St, E.Shard))
    return Err;
  if (E.Ordinal >= St.Declared)
    return makeError(ErrorCode::Corrupt,
                     "reader: index claims more classes than the shard "
                     "directory declares");
  return Error::success();
}

Expected<ClassFile>
PackedArchiveReader::materializeLocked(ShardState &St,
                                       const ArchiveIndex::ClassEntry &E) {
  assert(St.T && "a shard that released its decode state holds no records");
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
PackedArchiveReader::classLocked(ShardState &St,
                                 const ArchiveIndex::ClassEntry &E) {
  if (auto Err = readyLocked(St, E))
    return Err;
  if (const std::vector<uint8_t> *Kept = St.kept(E.Ordinal))
    return parseClassFile(*Kept, Limits);
  return materializeLocked(St, E);
}

Expected<ClassFile>
PackedArchiveReader::unpackClass(const std::string &InternalName) {
  const ArchiveIndex::ClassEntry *E = Frames.Index.find(InternalName);
  if (!E)
    return Error::failure("reader: class '" + InternalName +
                          "' not in archive index");
  ShardState &St = *shardSlot(E->Shard);
  // Hold the shard lock through materialization: another thread's
  // decodeUpTo on this shard grows St.M and St.Recs, which
  // materializeClass reads.
  std::lock_guard<std::mutex> Lock(St.Mu);
  return classLocked(St, *E);
}

Expected<std::vector<uint8_t>>
PackedArchiveReader::unpackClassBytes(const std::string &InternalName) {
  const ArchiveIndex::ClassEntry *E = Frames.Index.find(InternalName);
  if (!E)
    return Error::failure("reader: class '" + InternalName +
                          "' not in archive index");
  ShardState &St = *shardSlot(E->Shard);
  std::lock_guard<std::mutex> Lock(St.Mu);
  if (auto Err = readyLocked(St, *E))
    return Err;
  if (const std::vector<uint8_t> *Kept = St.kept(E->Ordinal))
    return *Kept;
  auto CF = materializeLocked(St, *E);
  if (!CF)
    return CF.takeError();
  // Index names and (shard, ordinal) slots are unique, so the name
  // check materializeLocked just ran covers every later fetch of
  // these bytes.
  std::vector<uint8_t> Out = writeClassFile(*CF);
  if (St.Bytes.size() <= E->Ordinal)
    St.Bytes.resize(E->Ordinal + 1);
  St.Bytes[E->Ordinal] = Out;
  St.Recs[E->Ordinal] = ClassRec();
  if (++St.NumBytes == St.Declared) {
    // Every class the shard declares is held as bytes: nothing is left
    // to decode, so drop the decode state, dependents first.
    St.T.reset();
    St.Ctx.reset();
    St.Dec.reset();
    St.M = Model();
    St.S = StreamSet();
    St.Recs = std::vector<ClassRec>();
  }
  return Out;
}

Expected<std::vector<ClassFile>>
PackedArchiveReader::unpackAll(unsigned Threads) {
  const std::vector<ArchiveIndex::ClassEntry> &Entries = Frames.Index.Classes;

  // Each shard the index touches, in first-touch order, with the
  // positions of its entries in index order.
  struct ShardWork {
    ShardState *St = nullptr;
    size_t K = 0;
    std::vector<size_t> Entries;
    /// The shard's first failing entry and its error, if any.
    size_t FailAt = SIZE_MAX;
    Error Fail;
  };
  std::vector<ShardWork> Work;
  std::vector<size_t> WorkOf(shardCount(), SIZE_MAX);
  for (size_t I = 0; I < Entries.size(); ++I) {
    size_t &J = WorkOf[Entries[I].Shard];
    if (J == SIZE_MAX) {
      J = Work.size();
      Work.emplace_back();
      Work.back().St = shardSlot(Entries[I].Shard);
      Work.back().K = Entries[I].Shard;
    }
    Work[J].Entries.push_back(I);
  }

  // Inflate serially, in first-touch order, so the shared budget is
  // charged exactly as a serial walk of the index charges it. A failure
  // latches in its shard and surfaces at the shard's first entry below.
  for (ShardWork &W : Work) {
    std::lock_guard<std::mutex> Lock(W.St->Mu);
    (void)inflateShardLocked(*W.St, W.K);
  }

  // Each shard then decodes and materializes its own entries, in index
  // order, into preallocated slots, stopping at its first failure.
  // Shards share no decode state, so they run concurrently. The calling
  // thread decodes shards too: what it allocates reuses its own heap.
  std::vector<ClassFile> Out(Entries.size());
  parallelFor(Work.size(), Threads, [this, &Entries, &Out, &Work](size_t J) {
    ShardWork &W = Work[J];
    std::lock_guard<std::mutex> Lock(W.St->Mu);
    for (size_t I : W.Entries) {
      auto CF = classLocked(*W.St, Entries[I]);
      if (!CF) {
        W.FailAt = I;
        W.Fail = CF.takeError();
        return;
      }
      Out[I] = std::move(*CF);
    }
  });

  // The error of the first failing entry in index order, whatever the
  // thread count: every entry before it decoded successfully.
  const ShardWork *First = nullptr;
  for (const ShardWork &W : Work)
    if (W.FailAt != SIZE_MAX && (!First || W.FailAt < First->FailAt))
      First = &W;
  if (First)
    return First->Fail;
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

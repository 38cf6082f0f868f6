//===- Streams.cpp - separated wire streams (§4, §7) ----------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Streams.h"
#include "support/VarInt.h"

using namespace cjpack;

namespace {

/// Runs the final compression stage for one stream: try the planned
/// backend, keep the result only when strictly smaller than raw (the
/// historical zlib rule, now per backend), else store. Returns the
/// wire method byte; \p Stored receives the bytes to write.
uint8_t packStream(BackendId Plan, const std::vector<uint8_t> &Raw,
                   std::vector<uint8_t> &Stored) {
  if (Plan != BackendId::Store && !Raw.empty()) {
    Stored = allBackends()[static_cast<uint8_t>(Plan)].Compress(Raw);
    if (Stored.size() < Raw.size())
      return static_cast<uint8_t>(Plan);
    Stored.clear();
  }
  return static_cast<uint8_t>(BackendId::Store);
}

/// Decodes one stream's stored bytes via its wire method byte. The
/// declared \p RawLen caps the backend's output (empty-declared
/// streams get a one-byte cap so a lying header cannot expand
/// unbounded), and the result must match it exactly — a wrong method
/// byte shows up here as a size mismatch when the blob even parses.
Expected<std::vector<uint8_t>>
unpackStream(uint8_t Method, std::span<const uint8_t> Stored, size_t RawLen,
             DecodeBudget *Budget) {
  if (Method == static_cast<uint8_t>(BackendId::Store)) {
    if (Stored.size() != RawLen)
      return makeError(ErrorCode::Corrupt, "streams: stored size mismatch");
    return std::vector<uint8_t>(Stored.begin(), Stored.end());
  }
  const CompressionBackend *Backend = findBackend(Method);
  if (!Backend)
    return makeError(ErrorCode::Corrupt,
                     "streams: unknown compression backend");
  if (Budget)
    if (auto E = Budget->chargeInflate(RawLen, "streams"))
      return E;
  auto Raw = Backend->Decompress(Stored, RawLen);
  if (!Raw)
    return Raw.takeError();
  if (Raw->size() != RawLen)
    return makeError(ErrorCode::Corrupt, "streams: stream size mismatch");
  return Raw;
}

} // namespace

size_t StreamSizes::totalRaw() const {
  size_t Total = 0;
  for (size_t S : Raw)
    Total += S;
  return Total;
}

size_t StreamSizes::totalPacked() const {
  size_t Total = 0;
  for (size_t S : Packed)
    Total += S;
  return Total;
}

size_t StreamSizes::packedOf(StreamCategory C) const {
  size_t Total = 0;
  for (unsigned I = 0; I < NumStreams; ++I)
    if (streamCategory(static_cast<StreamId>(I)) == C)
      Total += Packed[I];
  return Total;
}

uint64_t StreamSizes::totalItems() const {
  uint64_t Total = 0;
  for (uint64_t N : Items)
    Total += N;
  return Total;
}

void StreamSizes::add(const StreamSizes &Other) {
  for (unsigned I = 0; I < NumStreams; ++I) {
    Raw[I] += Other.Raw[I];
    Packed[I] += Other.Packed[I];
    Items[I] += Other.Items[I];
  }
}

void StreamSet::adopt(StreamId Id, std::vector<uint8_t> Bytes) {
  unsigned I = static_cast<unsigned>(Id);
  Buffers[I] = std::move(Bytes);
  Readers[I] = std::make_unique<ByteReader>(Buffers[I]);
}

Expected<StoredStream> cjpack::readStreamEntry(ByteReader &R, unsigned Id,
                                               std::span<uint64_t> RawLens,
                                               const DecodeLimits &Limits) {
  StoredStream E;
  uint8_t GotId = R.readU1();
  E.Method = R.readU1();
  if (R.hasError() || GotId != Id || !findBackend(E.Method))
    return makeError(ErrorCode::Corrupt,
                     "streams: corrupt stream header at byte " +
                         std::to_string(R.position()));
  // The declared raw lengths size the inflate output, so an absurd
  // value must fail here, not OOM.
  for (uint64_t &Len : RawLens) {
    Len = readVarUInt(R);
    if (R.hasError())
      return R.takeError("streams");
    E.RawTotal += Len;
    if (Len > Limits.MaxStreamBytes || E.RawTotal > Limits.MaxStreamBytes)
      return makeError(ErrorCode::LimitExceeded,
                       "streams: stream length over limit at byte " +
                           std::to_string(R.position()));
  }
  uint64_t StoredLen = readVarUInt(R);
  if (R.hasError())
    return R.takeError("streams");
  if (E.Method == static_cast<uint8_t>(BackendId::Store) &&
      StoredLen != E.RawTotal)
    return makeError(ErrorCode::Corrupt, "streams: stored size mismatch");
  E.Stored = R.readSpan(static_cast<size_t>(StoredLen));
  if (R.hasError())
    return R.takeError("streams");
  return E;
}

std::vector<uint8_t>
cjpack::serializeShardedStreams(const std::vector<StreamSet> &Shards,
                                const BackendPlan &Plan, StreamSizes *Sizes) {
  ByteWriter W;
  writeVarUInt(W, Shards.size());
  for (unsigned I = 0; I < NumStreams; ++I) {
    StreamId Id = static_cast<StreamId>(I);
    std::vector<uint8_t> Joined;
    for (const StreamSet &S : Shards) {
      const std::vector<uint8_t> &Raw = S.raw(Id);
      Joined.insert(Joined.end(), Raw.begin(), Raw.end());
    }
    size_t RawTotal = Joined.size();
    std::vector<uint8_t> Stored;
    uint8_t Method = packStream(Plan.Stream[I], Joined, Stored);
    if (Method == 0)
      Stored = std::move(Joined);
    size_t HeaderStart = W.size();
    W.writeU1(static_cast<uint8_t>(I));
    W.writeU1(Method);
    for (const StreamSet &S : Shards)
      writeVarUInt(W, S.raw(Id).size());
    writeVarUInt(W, Stored.size());
    size_t HeaderLen = W.size() - HeaderStart;
    W.writeBytes(Stored);
    if (Sizes) {
      Sizes->Raw[I] = RawTotal;
      Sizes->Packed[I] = HeaderLen + Stored.size();
    }
  }
  return W.take();
}

Expected<std::vector<StreamSet>>
cjpack::deserializeShardedStreams(ByteReader &R, const DecodeLimits &Limits) {
  uint64_t Count = readVarUInt(R);
  if (R.hasError() || Count == 0 || Count > MaxShards)
    return makeError(ErrorCode::Corrupt,
                     "streams: implausible shard count at byte " +
                         std::to_string(R.position()));
  std::vector<StreamSet> Shards(static_cast<size_t>(Count));
  std::vector<uint64_t> Lens(Shards.size());
  for (unsigned I = 0; I < NumStreams; ++I) {
    auto E = readStreamEntry(R, I, Lens, Limits);
    if (!E)
      return E.takeError();
    auto Joined = unpackStream(E->Method, E->Stored,
                               static_cast<size_t>(E->RawTotal), nullptr);
    if (!Joined)
      return Joined.takeError();
    size_t Offset = 0;
    for (size_t K = 0; K < Shards.size(); ++K) {
      const uint8_t *Slice = Joined->data() + Offset;
      Shards[K].adopt(static_cast<StreamId>(I),
                      std::vector<uint8_t>(Slice, Slice + Lens[K]));
      Offset += static_cast<size_t>(Lens[K]);
    }
  }
  return Shards;
}

std::vector<uint8_t> StreamSet::serialize(const BackendPlan &Plan,
                                          StreamSizes *Sizes) const {
  ByteWriter W;
  for (unsigned I = 0; I < NumStreams; ++I) {
    const std::vector<uint8_t> &Raw = Writers[I].data();
    std::vector<uint8_t> Stored;
    uint8_t Method = packStream(Plan.Stream[I], Raw, Stored);
    if (Method == 0)
      Stored = Raw;
    size_t HeaderStart = W.size();
    W.writeU1(static_cast<uint8_t>(I));
    W.writeU1(Method);
    writeVarUInt(W, Raw.size());
    writeVarUInt(W, Stored.size());
    size_t HeaderLen = W.size() - HeaderStart;
    W.writeBytes(Stored);
    if (Sizes) {
      Sizes->Raw[I] = Raw.size();
      // Charge each stream its directory header too, so per-category
      // sums add up to the archive size.
      Sizes->Packed[I] = HeaderLen + Stored.size();
    }
  }
  return W.take();
}

Error StreamSet::deserialize(ByteReader &R, const DecodeLimits &Limits,
                             DecodeBudget *Budget) {
  for (unsigned I = 0; I < NumStreams; ++I) {
    uint64_t RawLen = 0;
    auto E = readStreamEntry(R, I, {&RawLen, 1}, Limits);
    if (!E)
      return E.takeError();
    auto Raw = unpackStream(E->Method, E->Stored,
                            static_cast<size_t>(RawLen), Budget);
    if (!Raw)
      return Raw.takeError();
    adopt(static_cast<StreamId>(I), std::move(*Raw));
  }
  return Error::success();
}

//===- Streams.cpp - separated wire streams (§4, §7) ----------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Streams.h"
#include "support/ThreadPool.h"
#include "support/VarInt.h"
#include <algorithm>
#include <numeric>

using namespace cjpack;

namespace {

/// Runs the final compression stage for one stream: try the planned
/// backend, keep the result only when strictly smaller than raw (the
/// historical zlib rule, now per backend), else store. Returns the
/// wire method byte; \p Stored receives the bytes to write.
uint8_t packStream(BackendId Plan, StreamId Id, RefScheme Scheme,
                   const std::vector<uint8_t> &Raw,
                   std::vector<uint8_t> &Stored) {
  if (Plan != BackendId::Store && !Raw.empty()) {
    Stored =
        allBackends()[static_cast<uint8_t>(Plan)].Compress(Raw, Id, Scheme);
    if (Stored.size() < Raw.size())
      return static_cast<uint8_t>(Plan);
    Stored.clear();
  }
  return static_cast<uint8_t>(BackendId::Store);
}

/// One stream after its final stage: the wire method byte and, unless
/// the stream is stored raw, the compressed bytes.
struct PackedStream {
  uint8_t Method = 0;
  std::vector<uint8_t> Compressed;

  /// The bytes the archive stores for raw stream \p Raw.
  std::span<const uint8_t> stored(const std::vector<uint8_t> &Raw) const {
    if (Method == static_cast<uint8_t>(BackendId::Store))
      return Raw;
    return Compressed;
  }
};

/// Runs packStream over a batch of raw streams: whole stream sets laid
/// end to end, so \p Raw[I] is stream I % NumStreams and compresses
/// with that stream's planned backend. \p Extra, when given, is one
/// more task. Tasks are independent compression units, so on \p Pool
/// (when it has more than one worker) they compress concurrently, the
/// largest first so the few long ones start early. The results come
/// back in batch order either way, so the bytes never depend on the
/// schedule.
std::vector<PackedStream>
packStreams(std::span<const std::vector<uint8_t> *const> Raw,
            const BackendPlan &Plan, ThreadPool *Pool, BatchExtra *Extra) {
  std::vector<PackedStream> Out(Raw.size());
  // Task I < Raw.size() packs stream I; task Raw.size() is Extra.
  size_t Tasks = Raw.size() + (Extra ? 1 : 0);
  auto Run = [&Raw, &Plan, &Out, Extra](size_t I) {
    if (I == Raw.size()) {
      Extra->Out = Extra->Compress(Extra->Raw);
      return;
    }
    Out[I].Method = packStream(Plan.Stream[I % NumStreams],
                               static_cast<StreamId>(I % NumStreams),
                               Plan.Scheme, *Raw[I], Out[I].Compressed);
  };
  if (!Pool || Pool->size() < 2) {
    for (size_t I = 0; I < Tasks; ++I)
      Run(I);
    return Out;
  }
  auto Size = [&Raw, Extra](size_t I) {
    return I == Raw.size() ? Extra->Raw.size() : Raw[I]->size();
  };
  std::vector<size_t> Order(Tasks);
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::stable_sort(Order.begin(), Order.end(), [&Size](size_t A, size_t B) {
    return Size(A) > Size(B);
  });
  std::vector<std::future<void>> Done;
  Done.reserve(Order.size());
  for (size_t I : Order)
    Done.push_back(Pool->submit([&Run, I] { Run(I); }));
  // Wait for every task before get() can rethrow: the tasks write into
  // this frame's state.
  for (std::future<void> &F : Done)
    F.wait();
  for (std::future<void> &F : Done)
    F.get();
  return Out;
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
                                const BackendPlan &Plan, StreamSizes *Sizes,
                                ThreadPool *Pool, BatchExtra *Extra) {
  std::vector<std::vector<uint8_t>> Joined(NumStreams);
  std::vector<const std::vector<uint8_t> *> Batch;
  Batch.reserve(NumStreams);
  for (unsigned I = 0; I < NumStreams; ++I) {
    for (const StreamSet &S : Shards) {
      const std::vector<uint8_t> &Raw = S.raw(static_cast<StreamId>(I));
      Joined[I].insert(Joined[I].end(), Raw.begin(), Raw.end());
    }
    Batch.push_back(&Joined[I]);
  }
  std::vector<PackedStream> Packed = packStreams(Batch, Plan, Pool, Extra);

  ByteWriter W;
  writeVarUInt(W, Shards.size());
  for (unsigned I = 0; I < NumStreams; ++I) {
    std::span<const uint8_t> Stored = Packed[I].stored(Joined[I]);
    size_t HeaderStart = W.size();
    W.writeU1(static_cast<uint8_t>(I));
    W.writeU1(Packed[I].Method);
    for (const StreamSet &S : Shards)
      writeVarUInt(W, S.raw(static_cast<StreamId>(I)).size());
    writeVarUInt(W, Stored.size());
    size_t HeaderLen = W.size() - HeaderStart;
    W.writeBytes(Stored);
    if (Sizes) {
      Sizes->Raw[I] = Joined[I].size();
      Sizes->Packed[I] = HeaderLen + Stored.size();
    }
  }
  return W.take();
}

Expected<std::vector<StreamSet>>
cjpack::deserializeShardedStreams(ByteReader &R, const DecodeLimits &Limits,
                                  DecodeBudget *Budget) {
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
                               static_cast<size_t>(E->RawTotal), Budget);
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
                                          StreamSizes *Sizes,
                                          ThreadPool *Pool) const {
  return std::move(serializeStreamSets({this, 1}, Plan, Sizes, Pool)[0]);
}

std::vector<std::vector<uint8_t>>
cjpack::serializeStreamSets(std::span<const StreamSet> Sets,
                            const BackendPlan &Plan, StreamSizes *Sizes,
                            ThreadPool *Pool, BatchExtra *Extra) {
  std::vector<const std::vector<uint8_t> *> Batch;
  Batch.reserve(Sets.size() * NumStreams);
  for (const StreamSet &S : Sets)
    for (unsigned I = 0; I < NumStreams; ++I)
      Batch.push_back(&S.raw(static_cast<StreamId>(I)));
  std::vector<PackedStream> Packed = packStreams(Batch, Plan, Pool, Extra);

  std::vector<std::vector<uint8_t>> Out;
  Out.reserve(Sets.size());
  for (size_t K = 0; K < Sets.size(); ++K) {
    ByteWriter W;
    for (unsigned I = 0; I < NumStreams; ++I) {
      const std::vector<uint8_t> &Raw = *Batch[K * NumStreams + I];
      const PackedStream &P = Packed[K * NumStreams + I];
      std::span<const uint8_t> Stored = P.stored(Raw);
      size_t HeaderStart = W.size();
      W.writeU1(static_cast<uint8_t>(I));
      W.writeU1(P.Method);
      writeVarUInt(W, Raw.size());
      writeVarUInt(W, Stored.size());
      size_t HeaderLen = W.size() - HeaderStart;
      W.writeBytes(Stored);
      if (Sizes) {
        Sizes->Raw[I] += Raw.size();
        // Charge each stream its directory header too, so per-category
        // sums add up to the archive size.
        Sizes->Packed[I] += HeaderLen + Stored.size();
      }
    }
    Out.push_back(W.take());
  }
  return Out;
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

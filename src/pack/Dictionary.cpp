//===- Dictionary.cpp - shared definitions across shards ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Dictionary.h"
#include "support/IdIndex.h"
#include "support/VarInt.h"
#include "zip/Zlib.h"
#include <algorithm>
#include <tuple>

using namespace cjpack;

namespace {

/// Value identity of a class reference across models: dimensions, base,
/// and for an 'L' base the value indices of its package and simple name
/// in the dictionary build's string counts (0 otherwise).
struct ClassRefKey {
  uint8_t Dims = 0;
  char Base = 'L';
  uint32_t Package = 0;
  uint32_t Simple = 0;

  bool operator==(const ClassRefKey &) const = default;
};

uint64_t hashOf(const IdIndex &Index, std::string_view S) {
  return Index.hash(S);
}

uint64_t hashOf(const IdIndex &Index, const ClassRefKey &K) {
  return Index.hasher()
      .word(static_cast<uint64_t>(K.Package) << 32 | K.Simple)
      .word(static_cast<uint64_t>(K.Dims) << 8 | static_cast<uint8_t>(K.Base))
      .finish();
}

/// The distinct values of one pool across the shard models (strings as
/// views into the models), each with the number of models holding it.
template <typename Key> struct ValueCounts {
  std::vector<Key> Values;
  std::vector<unsigned> Counts;
  IdIndex Index;

  /// Counts \p K once more; returns its value index.
  uint32_t count(const Key &K) {
    uint32_t Next = static_cast<uint32_t>(Values.size());
    uint32_t Id = Index.insert(hashOf(Index, K), Next,
                               [&](uint32_t I) { return Values[I] == K; });
    if (Id == Next) {
      Values.push_back(K);
      Counts.push_back(0);
    }
    ++Counts[Id];
    return Id;
  }

  /// The value index of \p K, or IdIndex::None.
  uint32_t find(const Key &K) const {
    return Index.find(hashOf(Index, K),
                      [&](uint32_t I) { return Values[I] == K; });
  }

  /// Keeps \p K out of the dictionary (the baseline seeds it); returns
  /// its value index, or IdIndex::None.
  uint32_t exclude(const Key &K) {
    uint32_t I = find(K);
    if (I != IdIndex::None)
      Counts[I] = 0;
    return I;
  }

  /// The indices of the values two or more models hold, sorted by
  /// \p Less on the values.
  template <typename LessFn> std::vector<uint32_t> shared(LessFn Less) const {
    std::vector<uint32_t> Out;
    for (uint32_t I = 0; I < Counts.size(); ++I)
      if (Counts[I] >= 2)
        Out.push_back(I);
    std::sort(Out.begin(), Out.end(), [&](uint32_t A, uint32_t B) {
      return Less(Values[A], Values[B]);
    });
    return Out;
  }

  /// shared() in byte order (string values).
  std::vector<uint32_t> shared() const { return shared(std::less<>()); }
};

/// Serialized body cap: a dictionary list longer than the body has
/// bytes is corrupt (every entry costs at least one byte).
bool plausibleCount(uint64_t Count, const ByteReader &R) {
  return Count <= R.remaining();
}

} // namespace

std::vector<uint8_t> SharedDictionary::frameBody() const {
  ByteWriter Body;
  auto PutStrings = [&Body](const std::vector<std::string> &List) {
    writeVarUInt(Body, List.size());
    for (const std::string &S : List) {
      writeVarUInt(Body, S.size());
      Body.writeString(S);
    }
  };
  PutStrings(Packages);
  PutStrings(Simples);
  PutStrings(FieldNames);
  PutStrings(MethodNames);
  PutStrings(Strings);
  writeVarUInt(Body, ClassRefs.size());
  for (const DictClassRef &R : ClassRefs) {
    Body.writeU1(R.Dims);
    Body.writeU1(static_cast<uint8_t>(R.Base));
    if (R.Base == 'L') {
      writeVarUInt(Body, R.Package);
      writeVarUInt(Body, R.Simple);
    }
  }

  return Body.take();
}

std::vector<uint8_t>
SharedDictionary::deflateFrame(std::span<const uint8_t> Body) {
  return deflateBytes(Body);
}

void SharedDictionary::writeFrame(ByteWriter &W, std::span<const uint8_t> Body,
                                  std::span<const uint8_t> Deflated) {
  std::span<const uint8_t> Stored =
      !Deflated.empty() && Deflated.size() < Body.size() ? Deflated : Body;
  writeVarUInt(W, Body.size());
  writeVarUInt(W, Stored.size());
  W.writeBytes(Stored);
}

void SharedDictionary::serialize(ByteWriter &W, bool Compress) const {
  std::vector<uint8_t> Body = frameBody();
  writeFrame(W, Body, Compress ? deflateFrame(Body) : std::vector<uint8_t>());
}

Expected<SharedDictionary>
SharedDictionary::deserialize(ByteReader &R, const DecodeLimits &Limits,
                              DecodeBudget *Budget) {
  uint64_t RawLen = readVarUInt(R);
  uint64_t StoredLen = readVarUInt(R);
  if (R.hasError() || StoredLen > RawLen || StoredLen > R.remaining())
    return makeError(ErrorCode::Corrupt,
                     "dictionary: implausible frame at byte " +
                         std::to_string(R.position()));
  if (RawLen > Limits.MaxStreamBytes)
    return makeError(ErrorCode::LimitExceeded,
                     "dictionary: frame length over limit");
  std::vector<uint8_t> Raw = R.readBytes(static_cast<size_t>(StoredLen));
  if (StoredLen < RawLen) {
    if (Budget)
      if (auto E = Budget->chargeInflate(RawLen, "dictionary"))
        return E;
    auto Inflated = inflateBytes(Raw, static_cast<size_t>(RawLen),
                                 static_cast<size_t>(RawLen));
    if (!Inflated)
      return Inflated.takeError();
    if (Inflated->size() != RawLen)
      return makeError(ErrorCode::Corrupt, "dictionary: size mismatch");
    Raw = std::move(*Inflated);
  }

  ByteReader Body(Raw);
  SharedDictionary D;
  auto GetStrings = [&Body](std::vector<std::string> &List) -> bool {
    uint64_t Count = readVarUInt(Body);
    if (Body.hasError() || !plausibleCount(Count, Body))
      return false;
    List.reserve(static_cast<size_t>(Count));
    for (uint64_t I = 0; I < Count; ++I) {
      size_t Len = static_cast<size_t>(readVarUInt(Body));
      List.push_back(Body.readString(Len));
      if (Body.hasError())
        return false;
    }
    return true;
  };
  if (!GetStrings(D.Packages) || !GetStrings(D.Simples) ||
      !GetStrings(D.FieldNames) || !GetStrings(D.MethodNames) ||
      !GetStrings(D.Strings))
    return makeError(ErrorCode::Corrupt,
                     "dictionary: truncated string table at byte " +
                         std::to_string(Body.position()));

  uint64_t RefCount = readVarUInt(Body);
  if (Body.hasError() || !plausibleCount(RefCount, Body))
    return makeError(ErrorCode::Corrupt,
                     "dictionary: implausible class-ref count");
  D.ClassRefs.reserve(static_cast<size_t>(RefCount));
  for (uint64_t I = 0; I < RefCount; ++I) {
    DictClassRef Ref;
    Ref.Dims = Body.readU1();
    Ref.Base = static_cast<char>(Body.readU1());
    bool Named = Ref.Base == 'L';
    if (Named) {
      Ref.Package = static_cast<uint32_t>(readVarUInt(Body));
      Ref.Simple = static_cast<uint32_t>(readVarUInt(Body));
      if (Ref.Package >= D.Packages.size() ||
          Ref.Simple >= D.Simples.size())
        return makeError(ErrorCode::Corrupt,
                         "dictionary: class ref names out of range");
    }
    if (Body.hasError())
      return makeError(ErrorCode::Corrupt, "dictionary: truncated class refs");
    std::string_view Package, Simple;
    if (Named) {
      Package = D.Packages[Ref.Package];
      Simple = D.Simples[Ref.Simple];
    }
    if (!isWellFormedClassRef(Ref.Dims, Ref.Base, Package, Simple))
      return makeError(ErrorCode::Corrupt,
                       "dictionary: malformed class ref");
    D.ClassRefs.push_back(Ref);
  }
  return D;
}

SharedDictionary
cjpack::buildSharedDictionary(const std::vector<const Model *> &ShardModels,
                              const Model *Baseline) {
  // How many shards intern each value, keyed by value (never by a
  // model's id), with every order fixed by the sorts below.
  ValueCounts<std::string_view> Pkg, Simp, Fld, Mth, Str;
  ValueCounts<ClassRefKey> Refs;
  std::vector<uint32_t> PkgOf, SimpOf; // a model's ids -> value indices
  auto RefKeyOf = [&](const MClassRef &R) {
    ClassRefKey K{R.Dims, R.Base, 0, 0};
    if (R.Base == 'L') {
      K.Package = PkgOf[R.Package];
      K.Simple = SimpOf[R.Simple];
    }
    return K;
  };
  for (const Model *M : ShardModels) {
    PkgOf.resize(M->packageCount());
    for (uint32_t I = 0; I < PkgOf.size(); ++I)
      PkgOf[I] = Pkg.count(M->package(I));
    SimpOf.resize(M->simpleNameCount());
    for (uint32_t I = 0; I < SimpOf.size(); ++I)
      SimpOf[I] = Simp.count(M->simpleName(I));
    for (uint32_t I = 0; I < M->fieldNameCount(); ++I)
      Fld.count(M->fieldName(I));
    for (uint32_t I = 0; I < M->methodNameCount(); ++I)
      Mth.count(M->methodName(I));
    for (uint32_t I = 0; I < M->stringConstCount(); ++I)
      Str.count(M->stringConst(I));
    for (uint32_t I = 0; I < M->classRefCount(); ++I)
      Refs.count(RefKeyOf(M->classRef(I)));
  }

  // Values the standard preload already seeds on both sides. A baseline
  // class ref whose strings no shard holds matches no shard's ref.
  if (Baseline) {
    PkgOf.resize(Baseline->packageCount());
    for (uint32_t I = 0; I < PkgOf.size(); ++I)
      PkgOf[I] = Pkg.exclude(Baseline->package(I));
    SimpOf.resize(Baseline->simpleNameCount());
    for (uint32_t I = 0; I < SimpOf.size(); ++I)
      SimpOf[I] = Simp.exclude(Baseline->simpleName(I));
    for (uint32_t I = 0; I < Baseline->fieldNameCount(); ++I)
      Fld.exclude(Baseline->fieldName(I));
    for (uint32_t I = 0; I < Baseline->methodNameCount(); ++I)
      Mth.exclude(Baseline->methodName(I));
    for (uint32_t I = 0; I < Baseline->stringConstCount(); ++I)
      Str.exclude(Baseline->stringConst(I));
    for (uint32_t I = 0; I < Baseline->classRefCount(); ++I) {
      ClassRefKey K = RefKeyOf(Baseline->classRef(I));
      if (K.Package != IdIndex::None && K.Simple != IdIndex::None)
        Refs.exclude(K);
    }
  }

  SharedDictionary D;
  std::vector<uint32_t> DictPkg(Pkg.Values.size(), IdIndex::None),
      DictSimp(Simp.Values.size(), IdIndex::None);
  auto AddPkg = [&](uint32_t V) {
    if (DictPkg[V] == IdIndex::None) {
      DictPkg[V] = static_cast<uint32_t>(D.Packages.size());
      D.Packages.emplace_back(Pkg.Values[V]);
    }
    return DictPkg[V];
  };
  auto AddSimp = [&](uint32_t V) {
    if (DictSimp[V] == IdIndex::None) {
      DictSimp[V] = static_cast<uint32_t>(D.Simples.size());
      D.Simples.emplace_back(Simp.Values[V]);
    }
    return DictSimp[V];
  };
  auto AddAll = [](const ValueCounts<std::string_view> &C,
                   std::vector<std::string> &List) {
    for (uint32_t V : C.shared())
      List.emplace_back(C.Values[V]);
  };

  for (uint32_t V : Pkg.shared())
    AddPkg(V);
  for (uint32_t V : Simp.shared())
    AddSimp(V);
  AddAll(Fld, D.FieldNames);
  AddAll(Mth, D.MethodNames);
  AddAll(Str, D.Strings);
  // Class refs in (dims, base, package, simple name) order; strings of
  // a non-'L' base are empty.
  auto Spelled = [&](const ClassRefKey &K) {
    bool Named = K.Base == 'L';
    return std::make_tuple(K.Dims, K.Base,
                           Named ? Pkg.Values[K.Package] : std::string_view(),
                           Named ? Simp.Values[K.Simple] : std::string_view());
  };
  for (uint32_t V : Refs.shared([&](const ClassRefKey &A,
                                    const ClassRefKey &B) {
         return Spelled(A) < Spelled(B);
       })) {
    const ClassRefKey &K = Refs.Values[V];
    DictClassRef Ref;
    Ref.Dims = K.Dims;
    Ref.Base = K.Base;
    if (K.Base == 'L') {
      // The ref's strings may have been excluded as baseline values;
      // force them in so the index space is self-contained.
      Ref.Package = AddPkg(K.Package);
      Ref.Simple = AddSimp(K.Simple);
    }
    D.ClassRefs.push_back(Ref);
  }
  return D;
}

namespace {

/// Shared replay: intern each entry and preload it, in the one order
/// both sides reproduce. \p Preload forwards to the coder.
template <typename PreloadFn>
bool replayDictionary(Model &M, const SharedDictionary &D,
                      PreloadFn &&Preload) {
  if (D.empty())
    return true;
  for (const std::string &S : D.Packages)
    if (!Preload(poolId(PoolKind::Package), M.internPackage(S)))
      return false;
  for (const std::string &S : D.Simples)
    if (!Preload(poolId(PoolKind::SimpleName), M.internSimpleName(S)))
      return false;
  for (const std::string &S : D.FieldNames)
    if (!Preload(poolId(PoolKind::FieldName), M.internFieldName(S)))
      return false;
  for (const std::string &S : D.MethodNames)
    if (!Preload(poolId(PoolKind::MethodName), M.internMethodName(S)))
      return false;
  for (const std::string &S : D.Strings)
    if (!Preload(poolId(PoolKind::StringConst), M.internStringConst(S)))
      return false;
  for (const DictClassRef &R : D.ClassRefs) {
    MClassRef Ref;
    Ref.Dims = R.Dims;
    Ref.Base = R.Base;
    if (R.Base == 'L') {
      Ref.Package = M.internPackage(D.Packages[R.Package]);
      Ref.Simple = M.internSimpleName(D.Simples[R.Simple]);
    }
    if (!Preload(poolId(PoolKind::ClassRefPool), M.internClassRef(Ref)))
      return false;
  }
  return true;
}

} // namespace

bool cjpack::preloadDictionary(Model &M, RefEncoder &Enc,
                               const SharedDictionary &D) {
  return replayDictionary(M, D, [&](uint32_t Pool, uint32_t Object) {
    return Enc.preload(Pool, Object);
  });
}

bool cjpack::preloadDictionary(Model &M, RefDecoder &Dec,
                               const SharedDictionary &D) {
  return replayDictionary(M, D, [&](uint32_t Pool, uint32_t Object) {
    return Dec.preload(Pool, Object);
  });
}

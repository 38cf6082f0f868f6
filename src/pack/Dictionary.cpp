//===- Dictionary.cpp - shared definitions across shards ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Dictionary.h"
#include "support/VarInt.h"
#include "zip/Zlib.h"
#include <map>
#include <set>
#include <tuple>

using namespace cjpack;

namespace {

/// Value identity of a class reference, independent of any model's id
/// assignment: (dims, base, package string, simple string). Strings are
/// empty for non-'L' bases.
using ClassRefKey = std::tuple<uint8_t, char, std::string, std::string>;

ClassRefKey classRefKey(const Model &M, const MClassRef &R) {
  if (R.Base != 'L')
    return {R.Dims, R.Base, "", ""};
  return {R.Dims, R.Base, M.package(R.Package), M.simpleName(R.Simple)};
}

/// Serialized body cap: a dictionary list longer than the body has
/// bytes is corrupt (every entry costs at least one byte).
bool plausibleCount(uint64_t Count, const ByteReader &R) {
  return Count <= R.remaining();
}

} // namespace

void SharedDictionary::serialize(ByteWriter &W, bool Compress) const {
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

  std::vector<uint8_t> Raw = Body.take();
  std::vector<uint8_t> Deflated;
  if (Compress && !Raw.empty()) {
    Deflated = deflateBytes(Raw);
    if (Deflated.size() >= Raw.size())
      Deflated.clear();
  }
  writeVarUInt(W, Raw.size());
  if (!Deflated.empty()) {
    writeVarUInt(W, Deflated.size());
    W.writeBytes(Deflated);
  } else {
    writeVarUInt(W, Raw.size());
    W.writeBytes(Raw);
  }
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
  // How many shards intern each value. Keys are values, not ids, so the
  // maps double as the deterministic (sorted) dictionary order.
  std::map<std::string, unsigned> PkgN, SimpN, FldN, MthN, StrN;
  std::map<ClassRefKey, unsigned> RefN;
  for (const Model *M : ShardModels) {
    for (size_t I = 0; I < M->packageCount(); ++I)
      ++PkgN[M->package(static_cast<uint32_t>(I))];
    for (size_t I = 0; I < M->simpleNameCount(); ++I)
      ++SimpN[M->simpleName(static_cast<uint32_t>(I))];
    for (size_t I = 0; I < M->fieldNameCount(); ++I)
      ++FldN[M->fieldName(static_cast<uint32_t>(I))];
    for (size_t I = 0; I < M->methodNameCount(); ++I)
      ++MthN[M->methodName(static_cast<uint32_t>(I))];
    for (size_t I = 0; I < M->stringConstCount(); ++I)
      ++StrN[M->stringConst(static_cast<uint32_t>(I))];
    for (size_t I = 0; I < M->classRefCount(); ++I)
      ++RefN[classRefKey(*M, M->classRef(static_cast<uint32_t>(I)))];
  }

  // Values the standard preload already seeds on both sides.
  std::set<std::string> BasePkg, BaseSimp, BaseFld, BaseMth, BaseStr;
  std::set<ClassRefKey> BaseRef;
  if (Baseline) {
    for (size_t I = 0; I < Baseline->packageCount(); ++I)
      BasePkg.insert(Baseline->package(static_cast<uint32_t>(I)));
    for (size_t I = 0; I < Baseline->simpleNameCount(); ++I)
      BaseSimp.insert(Baseline->simpleName(static_cast<uint32_t>(I)));
    for (size_t I = 0; I < Baseline->fieldNameCount(); ++I)
      BaseFld.insert(Baseline->fieldName(static_cast<uint32_t>(I)));
    for (size_t I = 0; I < Baseline->methodNameCount(); ++I)
      BaseMth.insert(Baseline->methodName(static_cast<uint32_t>(I)));
    for (size_t I = 0; I < Baseline->stringConstCount(); ++I)
      BaseStr.insert(Baseline->stringConst(static_cast<uint32_t>(I)));
    for (size_t I = 0; I < Baseline->classRefCount(); ++I)
      BaseRef.insert(
          classRefKey(*Baseline, Baseline->classRef(static_cast<uint32_t>(I))));
  }

  SharedDictionary D;
  std::map<std::string, uint32_t> PkgIdx, SimpIdx;
  auto AddPkg = [&](const std::string &S) -> uint32_t {
    auto [It, Fresh] =
        PkgIdx.try_emplace(S, static_cast<uint32_t>(D.Packages.size()));
    if (Fresh)
      D.Packages.push_back(S);
    return It->second;
  };
  auto AddSimp = [&](const std::string &S) -> uint32_t {
    auto [It, Fresh] =
        SimpIdx.try_emplace(S, static_cast<uint32_t>(D.Simples.size()));
    if (Fresh)
      D.Simples.push_back(S);
    return It->second;
  };

  for (const auto &[S, N] : PkgN)
    if (N >= 2 && !BasePkg.count(S))
      AddPkg(S);
  for (const auto &[S, N] : SimpN)
    if (N >= 2 && !BaseSimp.count(S))
      AddSimp(S);
  for (const auto &[S, N] : FldN)
    if (N >= 2 && !BaseFld.count(S))
      D.FieldNames.push_back(S);
  for (const auto &[S, N] : MthN)
    if (N >= 2 && !BaseMth.count(S))
      D.MethodNames.push_back(S);
  for (const auto &[S, N] : StrN)
    if (N >= 2 && !BaseStr.count(S))
      D.Strings.push_back(S);
  for (const auto &[Key, N] : RefN) {
    if (N < 2 || BaseRef.count(Key))
      continue;
    DictClassRef Ref;
    Ref.Dims = std::get<0>(Key);
    Ref.Base = std::get<1>(Key);
    if (Ref.Base == 'L') {
      // The ref's strings may have been excluded as baseline values;
      // force them in so the index space is self-contained.
      Ref.Package = AddPkg(std::get<2>(Key));
      Ref.Simple = AddSimp(std::get<3>(Key));
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

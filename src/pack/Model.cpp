//===- Model.cpp - the restructured classfile model (Fig. 1) --------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Model.h"

using namespace cjpack;

void cjpack::splitClassName(std::string_view Internal,
                            std::string_view &Package,
                            std::string_view &Simple) {
  size_t Slash = Internal.rfind('/');
  if (Slash == std::string_view::npos) {
    Package = {};
    Simple = Internal;
  } else {
    Package = Internal.substr(0, Slash);
    Simple = Internal.substr(Slash + 1);
  }
}

namespace {

/// \name Hashes of the pools' keys, under \p Index's key
/// @{
uint64_t hashOf(const IdIndex &Index, std::string_view S) {
  return Index.hash(S);
}

uint64_t hashOf(const IdIndex &Index, const MClassRef &R) {
  return Index.hasher()
      .word(static_cast<uint64_t>(R.Package) << 32 | R.Simple)
      .word(static_cast<uint64_t>(R.Dims) << 8 | static_cast<uint8_t>(R.Base))
      .finish();
}

uint64_t hashOf(const IdIndex &Index, const MFieldRef &R) {
  return Index.hasher()
      .word(static_cast<uint64_t>(R.Owner) << 32 | R.Name)
      .word(R.Type)
      .finish();
}

uint64_t hashOf(const IdIndex &Index, const MMethodRef &R) {
  SipHasher H = Index.hasher();
  H.word(static_cast<uint64_t>(R.Owner) << 32 | R.Name).word(R.Sig.size());
  size_t K = 0;
  for (; K + 1 < R.Sig.size(); K += 2)
    H.word(static_cast<uint64_t>(R.Sig[K]) << 32 | R.Sig[K + 1]);
  if (K < R.Sig.size())
    H.word(R.Sig[K]);
  return H.finish();
}
/// @}

/// The id of the value equal to \p V in \p Values, else the next id,
/// under which \p V is added.
template <typename T, typename U>
uint32_t internInto(IdIndex &Index, std::vector<T> &Values, U &&V) {
  uint32_t Next = static_cast<uint32_t>(Values.size());
  uint32_t Id = Index.insert(hashOf(Index, V), Next,
                             [&](uint32_t I) { return Values[I] == V; });
  if (Id == Next)
    Values.emplace_back(std::forward<U>(V));
  return Id;
}

} // namespace

uint32_t Model::StringPool::intern(std::string_view S) {
  return internInto(Index, Values, S);
}

uint32_t Model::StringPool::append(std::string &&S) {
  return internInto(Index, Values, std::move(S));
}

uint32_t Model::internPackage(std::string_view Name) {
  return Packages.intern(Name);
}
uint32_t Model::internSimpleName(std::string_view Name) {
  return Simples.intern(Name);
}
uint32_t Model::internFieldName(std::string_view Name) {
  return FieldNames.intern(Name);
}
uint32_t Model::internMethodName(std::string_view Name) {
  return MethodNames.intern(Name);
}
uint32_t Model::internStringConst(std::string_view Value) {
  return Strings.intern(Value);
}
uint32_t Model::internClassRef(const MClassRef &Ref) {
  return internInto(ClassRefIndex, ClassRefs, Ref);
}
uint32_t Model::internFieldRef(const MFieldRef &Ref) {
  return internInto(FieldRefIndex, FieldRefs, Ref);
}
uint32_t Model::internMethodRef(MMethodRef Ref) {
  size_t Before = MethodRefs.size();
  uint32_t Id = internInto(MethodRefIndex, MethodRefs, std::move(Ref));
  if (MethodRefs.size() != Before)
    noteMethodTypes(MethodRefs.back());
  return Id;
}

void Model::noteMethodTypes(const MMethodRef &Ref) {
  MethodTypes T;
  T.ArgStart = static_cast<uint32_t>(ArgVTypes.size());
  if (!Ref.Sig.empty())
    T.Ret = classRefVType(Ref.Sig[0]);
  for (size_t K = 1; K < Ref.Sig.size(); ++K)
    ArgVTypes.push_back(classRefVType(Ref.Sig[K]));
  T.ArgCount = static_cast<uint32_t>(ArgVTypes.size()) - T.ArgStart;
  MethodRefTypes.push_back(T);
}

Expected<uint32_t>
Model::internClassByInternalName(std::string_view Name) {
  if (!Name.empty() && Name[0] == '[') {
    auto T = parseFieldDescriptor(Name);
    if (!T)
      return T.takeError();
    return internTypeDesc(*T);
  }
  return internClass(0, 'L', Name);
}

Expected<uint32_t> Model::internTypeDesc(const TypeDesc &T) {
  return internClass(T.Dims, T.Base, T.ClassName);
}

Expected<uint32_t> Model::internClass(uint8_t Dims, char Base,
                                      std::string_view Name) {
  std::string_view Package, Simple;
  if (Base == 'L')
    splitClassName(Name, Package, Simple);
  if (!isWellFormedClassRef(Dims, Base, Package, Simple))
    return makeError(ErrorCode::Corrupt,
                     "pack: malformed class name '" + std::string(Name) +
                         "'");
  MClassRef Ref;
  Ref.Dims = Dims;
  Ref.Base = Base;
  if (Base == 'L') {
    Ref.Package = internPackage(Package);
    Ref.Simple = internSimpleName(Simple);
  }
  return internClassRef(Ref);
}

bool cjpack::isWellFormedClassRef(uint8_t Dims, char Base,
                                  std::string_view Package,
                                  std::string_view Simple) {
  switch (Base) {
  case 'B': case 'C': case 'D': case 'F': case 'I': case 'J': case 'S':
  case 'Z':
    return true;
  case 'V':
    return Dims == 0;
  case 'L':
    return !(Package.empty() && Simple.empty()) &&
           Package.find(';') == std::string_view::npos &&
           Simple.find(';') == std::string_view::npos;
  default:
    return false;
  }
}

Expected<std::vector<uint32_t>>
Model::internSignature(std::string_view Desc) {
  auto M = parseMethodDescriptor(Desc);
  if (!M)
    return M.takeError();
  std::vector<uint32_t> Sig;
  Sig.reserve(M->Params.size() + 1);
  auto Ret = internTypeDesc(M->Ret);
  if (!Ret)
    return Ret.takeError();
  Sig.push_back(*Ret);
  for (const TypeDesc &P : M->Params) {
    auto Param = internTypeDesc(P);
    if (!Param)
      return Param.takeError();
    Sig.push_back(*Param);
  }
  return Sig;
}

uint32_t Model::appendPackage(std::string Name) {
  return Packages.append(std::move(Name));
}
uint32_t Model::appendSimpleName(std::string Name) {
  return Simples.append(std::move(Name));
}
uint32_t Model::appendFieldName(std::string Name) {
  return FieldNames.append(std::move(Name));
}
uint32_t Model::appendMethodName(std::string Name) {
  return MethodNames.append(std::move(Name));
}
uint32_t Model::appendStringConst(std::string Value) {
  return Strings.append(std::move(Value));
}
uint32_t Model::appendClassRef(const MClassRef &Ref) {
  return internClassRef(Ref);
}
uint32_t Model::appendFieldRef(MFieldRef Ref) {
  return internFieldRef(Ref);
}
uint32_t Model::appendMethodRef(MMethodRef Ref) {
  return internMethodRef(std::move(Ref));
}

TypeDesc Model::classRefTypeDesc(uint32_t Id) const {
  const MClassRef &Ref = classRef(Id);
  TypeDesc T;
  T.Dims = Ref.Dims;
  T.Base = Ref.Base;
  if (Ref.Base == 'L') {
    const std::string &Pkg = package(Ref.Package);
    T.ClassName =
        Pkg.empty() ? simpleName(Ref.Simple) : Pkg + "/" + simpleName(Ref.Simple);
  }
  return T;
}

std::string Model::classRefInternalName(uint32_t Id) const {
  const MClassRef &Ref = classRef(Id);
  TypeDesc T = classRefTypeDesc(Id);
  if (Ref.Dims == 0 && Ref.Base == 'L')
    return T.ClassName;
  return printTypeDesc(T);
}

std::string
Model::signatureDescriptor(const std::vector<uint32_t> &Sig) const {
  assert(!Sig.empty() && "signature must contain a return type");
  MethodDesc M;
  M.Ret = classRefTypeDesc(Sig[0]);
  for (size_t I = 1; I < Sig.size(); ++I)
    M.Params.push_back(classRefTypeDesc(Sig[I]));
  return printMethodDesc(M);
}

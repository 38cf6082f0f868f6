//===- Model.cpp - the restructured classfile model (Fig. 1) --------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Model.h"

using namespace cjpack;

void cjpack::splitClassName(std::string_view Internal,
                            std::string &Package, std::string &Simple) {
  size_t Slash = Internal.rfind('/');
  if (Slash == std::string_view::npos) {
    Package.clear();
    Simple = Internal;
  } else {
    Package = Internal.substr(0, Slash);
    Simple = Internal.substr(Slash + 1);
  }
}

namespace {

template <typename MapT, typename VecT, typename KeyT>
uint32_t internInto(MapT &Ids, VecT &Items, const KeyT &Key) {
  auto It = Ids.find(Key);
  if (It != Ids.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Items.size());
  Items.emplace_back(Key);
  Ids.emplace(Key, Id);
  return Id;
}

} // namespace

uint32_t Model::internPackage(std::string_view Name) {
  return internInto(PackageIds, Packages, Name);
}
uint32_t Model::internSimpleName(std::string_view Name) {
  return internInto(SimpleIds, Simples, Name);
}
uint32_t Model::internFieldName(std::string_view Name) {
  return internInto(FieldNameIds, FieldNames, Name);
}
uint32_t Model::internMethodName(std::string_view Name) {
  return internInto(MethodNameIds, MethodNames, Name);
}
uint32_t Model::internStringConst(std::string_view Value) {
  return internInto(StringIds, Strings, Value);
}
uint32_t Model::internClassRef(const MClassRef &Ref) {
  return internInto(ClassRefIds, ClassRefs, Ref);
}
uint32_t Model::internFieldRef(const MFieldRef &Ref) {
  return internInto(FieldRefIds, FieldRefs, Ref);
}
uint32_t Model::internMethodRef(const MMethodRef &Ref) {
  return internInto(MethodRefIds, MethodRefs, Ref);
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
  MClassRef Ref;
  Ref.Dims = Dims;
  Ref.Base = Base;
  std::string Package, Simple;
  if (Base == 'L')
    splitClassName(Name, Package, Simple);
  if (!isWellFormedClassRef(Dims, Base, Package, Simple))
    return makeError(ErrorCode::Corrupt,
                     "pack: malformed class name '" + std::string(Name) +
                         "'");
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
  return internPackage(Name);
}
uint32_t Model::appendSimpleName(std::string Name) {
  return internSimpleName(Name);
}
uint32_t Model::appendFieldName(std::string Name) {
  return internFieldName(Name);
}
uint32_t Model::appendMethodName(std::string Name) {
  return internMethodName(Name);
}
uint32_t Model::appendStringConst(std::string Value) {
  return internStringConst(Value);
}
uint32_t Model::appendClassRef(const MClassRef &Ref) {
  return internClassRef(Ref);
}
uint32_t Model::appendFieldRef(MFieldRef Ref) {
  return internFieldRef(Ref);
}
uint32_t Model::appendMethodRef(MMethodRef Ref) {
  return internMethodRef(Ref);
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

void Model::signatureVTypes(const std::vector<uint32_t> &Sig,
                            std::vector<VType> &Args, VType &Ret) const {
  assert(!Sig.empty() && "signature must contain a return type");
  Ret = classRefVType(Sig[0]);
  Args.clear();
  for (size_t I = 1; I < Sig.size(); ++I)
    Args.push_back(classRefVType(Sig[I]));
}

VType Model::classRefVType(uint32_t Id) const {
  return vtypeOf(classRefTypeDesc(Id));
}

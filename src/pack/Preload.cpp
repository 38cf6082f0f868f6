//===- Preload.cpp - preloaded standard references (§14) ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Preload.h"
#include "pack/CodeCommon.h"

using namespace cjpack;

namespace {

/// Well-known classes every 1999-era Java program touches.
const char *const StandardClasses[] = {
    "java/lang/Object",       "java/lang/String",
    "java/lang/StringBuffer", "java/lang/System",
    "java/lang/Exception",    "java/lang/RuntimeException",
    "java/lang/Throwable",    "java/lang/Math",
    "java/lang/Thread",       "java/lang/Class",
    "java/lang/Integer",      "java/lang/Boolean",
    "java/io/PrintStream",    "java/io/IOException",
    "java/io/InputStream",    "java/io/OutputStream",
    "java/util/Vector",       "java/util/Hashtable",
    "java/util/Enumeration",
};

const char *const StandardMethodNames[] = {
    "<init>", "<clinit>", "toString", "equals",  "hashCode",
    "length", "append",   "println",  "valueOf", "get",
    "put",    "size",     "run",      "main",    "close",
};

const char *const StandardFieldNames[] = {"out", "err", "in"};

/// Standard virtual-method references: owner, name, descriptor.
struct StdMethod {
  const char *Owner, *Name, *Desc;
  PoolKind Pool;
};
const StdMethod StandardMethods[] = {
    {"java/lang/Object", "<init>", "()V", PoolKind::MethodSpecial},
    {"java/lang/Object", "toString", "()Ljava/lang/String;",
     PoolKind::MethodVirtual},
    {"java/lang/Object", "equals", "(Ljava/lang/Object;)Z",
     PoolKind::MethodVirtual},
    {"java/lang/Object", "hashCode", "()I", PoolKind::MethodVirtual},
    {"java/lang/StringBuffer", "<init>", "()V", PoolKind::MethodSpecial},
    {"java/lang/StringBuffer", "append",
     "(Ljava/lang/String;)Ljava/lang/StringBuffer;",
     PoolKind::MethodVirtual},
    {"java/lang/StringBuffer", "append", "(I)Ljava/lang/StringBuffer;",
     PoolKind::MethodVirtual},
    {"java/lang/StringBuffer", "toString", "()Ljava/lang/String;",
     PoolKind::MethodVirtual},
    {"java/io/PrintStream", "println", "(Ljava/lang/String;)V",
     PoolKind::MethodVirtual},
    {"java/lang/String", "length", "()I", PoolKind::MethodVirtual},
    {"java/lang/String", "equals", "(Ljava/lang/Object;)Z",
     PoolKind::MethodVirtual},
};

/// Seeds model + coder through the common subset of the two coder
/// interfaces. \p Preload forwards to RefEncoder/RefDecoder::preload.
template <typename PreloadFn>
bool preloadInto(Model &M, RefScheme Scheme, PreloadFn &&Preload) {
  // Probe scheme support with the first entry.
  auto Cls = M.internClassByInternalName(StandardClasses[0]);
  if (!Cls)
    return false;
  const MClassRef &First = M.classRef(*Cls);
  if (!Preload(poolId(PoolKind::Package), First.Package))
    return false;

  auto SeedClass = [&](const std::string &Name) -> uint32_t {
    auto Id = M.internClassByInternalName(Name);
    assert(Id && "standard class name must parse");
    const MClassRef &R = M.classRef(*Id);
    if (R.Base == 'L') {
      Preload(poolId(PoolKind::Package), R.Package);
      Preload(poolId(PoolKind::SimpleName), R.Simple);
    }
    Preload(poolId(PoolKind::ClassRefPool), *Id);
    return *Id;
  };

  for (const char *Name : StandardClasses)
    SeedClass(Name);
  // Primitive class refs appear in every factored signature.
  for (char Prim : {'V', 'I', 'J', 'F', 'D', 'Z', 'B', 'C', 'S'}) {
    TypeDesc T;
    T.Base = Prim;
    Preload(poolId(PoolKind::ClassRefPool), *M.internTypeDesc(T));
  }
  for (const char *Name : StandardMethodNames)
    Preload(poolId(PoolKind::MethodName), M.internMethodName(Name));
  for (const char *Name : StandardFieldNames)
    Preload(poolId(PoolKind::FieldName), M.internFieldName(Name));

  for (const StdMethod &SM : StandardMethods) {
    MMethodRef Ref;
    Ref.Owner = SeedClass(SM.Owner);
    Ref.Name = M.internMethodName(SM.Name);
    auto Sig = M.internSignature(SM.Desc);
    assert(Sig && "standard descriptor must parse");
    for (uint32_t C : *Sig)
      Preload(poolId(PoolKind::ClassRefPool), C);
    Ref.Sig = std::move(*Sig);
    Preload(poolId(effectivePool(SM.Pool, Scheme)),
            M.internMethodRef(Ref));
  }

  // System.out / System.err, the most common static field refs.
  for (const char *Name : {"out", "err"}) {
    MFieldRef Ref;
    Ref.Owner = SeedClass("java/lang/System");
    Ref.Name = M.internFieldName(Name);
    TypeDesc T;
    T.Base = 'L';
    T.ClassName = "java/io/PrintStream";
    Ref.Type = *M.internTypeDesc(T);
    Preload(poolId(effectivePool(PoolKind::FieldStatic, Scheme)),
            M.internFieldRef(Ref));
  }
  return true;
}

} // namespace

bool cjpack::preloadStandardRefs(Model &M, RefEncoder &Enc,
                                 RefScheme Scheme) {
  return preloadInto(M, Scheme, [&](uint32_t Pool, uint32_t Object) {
    return Enc.preload(Pool, Object);
  });
}

bool cjpack::preloadStandardRefs(Model &M, RefDecoder &Dec,
                                 RefScheme Scheme) {
  return preloadInto(M, Scheme, [&](uint32_t Pool, uint32_t Object) {
    return Dec.preload(Pool, Object);
  });
}

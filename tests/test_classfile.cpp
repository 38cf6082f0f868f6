//===- test_classfile.cpp - classfile model/parser/writer/transform tests -===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Descriptor.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/BytecodeBuilder.h"
#include "pack/Packer.h"
#include "support/Sha1.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace cjpack;

namespace {

/// Builds a small but representative classfile by hand.
ClassFile makeSampleClass() {
  ClassFile CF;
  CF.AccessFlags = AccPublic | AccSuper;
  CF.ThisClass = CF.CP.addClass("com/example/Sample");
  CF.SuperClass = CF.CP.addClass("java/lang/Object");
  CF.Interfaces.push_back(CF.CP.addClass("java/lang/Runnable"));

  MemberInfo Field;
  Field.AccessFlags = AccPrivate | AccStatic | AccFinal;
  Field.NameIndex = CF.CP.addUtf8("LIMIT");
  Field.DescriptorIndex = CF.CP.addUtf8("I");
  {
    ByteWriter W;
    W.writeU2(CF.CP.addInteger(1000000));
    Field.Attributes.push_back({"ConstantValue", CF.arena().adopt(W.take())});
  }
  CF.Fields.push_back(std::move(Field));

  MemberInfo Ctor;
  Ctor.AccessFlags = AccPublic;
  Ctor.NameIndex = CF.CP.addUtf8("<init>");
  Ctor.DescriptorIndex = CF.CP.addUtf8("()V");
  BytecodeBuilder B(CF.CP, 1);
  B.loadLocal(VType::Ref, 0);
  B.invoke(Op::InvokeSpecial, "java/lang/Object", "<init>", "()V");
  B.ret(VType::Void);
  Ctor.Attributes.push_back(encodeCodeAttribute(B.finish(), CF.CP));
  CF.Methods.push_back(std::move(Ctor));

  MemberInfo Run;
  Run.AccessFlags = AccPublic;
  Run.NameIndex = CF.CP.addUtf8("run");
  Run.DescriptorIndex = CF.CP.addUtf8("()V");
  BytecodeBuilder B2(CF.CP, 1);
  B2.pushString("hello world");
  B2.op(Op::Pop);
  B2.pushInt(123456); // forces an ldc of an Integer entry
  B2.op(Op::Pop);
  B2.ret(VType::Void);
  Run.Attributes.push_back(encodeCodeAttribute(B2.finish(), CF.CP));
  CF.Methods.push_back(std::move(Run));
  return CF;
}

/// A class whose reachable pool holds every kind the canonical order
/// places, each entry added out of that order: int, float and string
/// under both ldc and ldc_w; long and double; Class; the three member
/// refs; NameAndType; Utf8. Plus one unreachable entry, and a MethodType
/// and two MethodHandles (the handles added in the reverse of their
/// referents' order) that an ldc loads only when \p LoadHandles.
ClassFile makeEveryKindClass(bool LoadHandles) {
  ClassFile CF;
  CF.MajorVersion = 51;
  CF.MinorVersion = 0;
  CF.AccessFlags = AccPublic | AccSuper;
  CF.CP.addUtf8("unreferenced");
  uint16_t WideString = CF.CP.addString("wide string");
  uint16_t WideInt = CF.CP.addInteger(70000);
  uint16_t WideFloat = CF.CP.addFloat(0x40490FDBu);
  uint16_t Long = CF.CP.addLong(-5);
  uint16_t Double = CF.CP.addDouble(0x400921FB54442D18ull);
  CF.ThisClass = CF.CP.addClass("pkg/EveryKind");
  CF.SuperClass = CF.CP.addClass("java/lang/Object");
  uint16_t Iface = CF.CP.addRef(CpTag::InterfaceMethodRef,
                                "java/lang/Runnable", "run", "()V");
  uint16_t Field = CF.CP.addRef(CpTag::FieldRef, "pkg/EveryKind", "count",
                                "I");
  uint16_t Method = CF.CP.addRef(CpTag::MethodRef, "java/lang/Object",
                                 "hashCode", "()I");
  uint16_t Class = CF.CP.addClass("java/util/ArrayList");
  uint16_t NarrowString = CF.CP.addString("narrow string");
  uint16_t NarrowInt = CF.CP.addInteger(-42);
  uint16_t NarrowFloat = CF.CP.addFloat(0x3F800000u);
  uint16_t RunName = CF.CP.addUtf8("run");
  uint16_t RunDesc = CF.CP.addUtf8("()V");
  uint16_t TypeDescriptor = CF.CP.addUtf8("(I)J");
  CpEntry Type;
  Type.Tag = CpTag::MethodType;
  Type.Ref1 = TypeDescriptor;
  uint16_t MethodType = CF.CP.appendRaw(Type);
  CpEntry ToMethod;
  ToMethod.Tag = CpTag::MethodHandle;
  ToMethod.RefKind = 5; // REF_invokeVirtual
  ToMethod.Ref1 = Method;
  uint16_t HandleToMethod = CF.CP.appendRaw(ToMethod);
  CpEntry ToIface;
  ToIface.Tag = CpTag::MethodHandle;
  ToIface.RefKind = 9; // REF_invokeInterface
  ToIface.Ref1 = Iface;
  uint16_t HandleToIface = CF.CP.appendRaw(ToIface);
  CF.CP.invalidateIndex();

  ByteWriter W;
  auto Op1 = [&](Op O) { W.writeU1(static_cast<uint8_t>(O)); };
  auto Ldc = [&](uint16_t Index) {
    Op1(Op::Ldc);
    W.writeU1(static_cast<uint8_t>(Index));
    Op1(Op::Pop);
  };
  auto WithU2 = [&](Op O, uint16_t Index) {
    Op1(O);
    W.writeU2(Index);
  };
  Ldc(NarrowString);
  Ldc(NarrowInt);
  Ldc(NarrowFloat);
  for (uint16_t Index : {WideString, WideInt, WideFloat}) {
    WithU2(Op::LdcW, Index);
    Op1(Op::Pop);
  }
  for (uint16_t Index : {Long, Double}) {
    WithU2(Op::Ldc2W, Index);
    Op1(Op::Pop2);
  }
  WithU2(Op::New, Class);
  Op1(Op::Pop);
  WithU2(Op::GetStatic, Field);
  Op1(Op::Pop);
  Op1(Op::ALoad0);
  WithU2(Op::InvokeVirtual, Method);
  Op1(Op::Pop);
  Op1(Op::ALoad0);
  WithU2(Op::InvokeInterface, Iface);
  W.writeU1(1);
  W.writeU1(0);
  if (LoadHandles) {
    Ldc(MethodType);
    Ldc(HandleToMethod);
    Ldc(HandleToIface);
  }
  Op1(Op::Return);

  CodeAttribute Code;
  Code.MaxStack = 2;
  Code.MaxLocals = 1;
  Code.Code = CF.arena().copy(W.data());
  MemberInfo Run;
  Run.AccessFlags = AccPublic;
  Run.NameIndex = RunName;
  Run.DescriptorIndex = RunDesc;
  Run.Attributes.push_back(encodeCodeAttribute(Code, CF.CP));
  CF.Methods.push_back(std::move(Run));
  return CF;
}

} // namespace

TEST(ClassFileIO, WriteParseRoundTrip) {
  ClassFile CF = makeSampleClass();
  std::vector<uint8_t> Bytes = writeClassFile(CF);
  auto Parsed = parseClassFile(Bytes);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(Parsed->thisClassName(), "com/example/Sample");
  EXPECT_EQ(Parsed->superClassName(), "java/lang/Object");
  ASSERT_EQ(Parsed->Interfaces.size(), 1u);
  EXPECT_EQ(Parsed->CP.className(Parsed->Interfaces[0]),
            "java/lang/Runnable");
  ASSERT_EQ(Parsed->Fields.size(), 1u);
  ASSERT_EQ(Parsed->Methods.size(), 2u);
  // Re-serialize: byte-identical.
  EXPECT_EQ(writeClassFile(*Parsed), Bytes);
}

TEST(ClassFileIO, RejectsBadMagic) {
  std::vector<uint8_t> Bytes = writeClassFile(makeSampleClass());
  Bytes[0] = 0x00;
  auto Parsed = parseClassFile(Bytes);
  EXPECT_FALSE(static_cast<bool>(Parsed));
}

TEST(ClassFileIO, RejectsTruncation) {
  std::vector<uint8_t> Bytes = writeClassFile(makeSampleClass());
  for (size_t Cut : std::initializer_list<size_t>{
           4, 10, 20, Bytes.size() / 2, Bytes.size() - 1}) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(static_cast<bool>(parseClassFile(Short))) << Cut;
  }
}

TEST(ClassFileIO, RejectsTrailingGarbage) {
  std::vector<uint8_t> Bytes = writeClassFile(makeSampleClass());
  Bytes.push_back(0);
  EXPECT_FALSE(static_cast<bool>(parseClassFile(Bytes)));
}

TEST(ConstantPool, DedupAndWideSlots) {
  ConstantPool CP;
  uint16_t A = CP.addUtf8("abc");
  EXPECT_EQ(CP.addUtf8("abc"), A);
  uint16_t L = CP.addLong(7);
  uint16_t Next = CP.addUtf8("after-long");
  EXPECT_EQ(Next, L + 2) << "Long must occupy two slots";
  EXPECT_EQ(CP.addLong(7), L);
  EXPECT_FALSE(CP.isValidIndex(L + 1)) << "shadow slot is unusable";
}

TEST(ConstantPool, RefBuildersShareSubparts) {
  ConstantPool CP;
  uint16_t F1 = CP.addRef(CpTag::FieldRef, "A", "x", "I");
  uint16_t F2 = CP.addRef(CpTag::FieldRef, "A", "y", "I");
  EXPECT_NE(F1, F2);
  // Class and descriptor Utf8 entries are shared.
  EXPECT_EQ(CP.entry(F1).Ref1, CP.entry(F2).Ref1);
  const CpEntry &N1 = CP.entry(CP.entry(F1).Ref2);
  const CpEntry &N2 = CP.entry(CP.entry(F2).Ref2);
  EXPECT_EQ(N1.Ref2, N2.Ref2) << "descriptor Utf8 shared";
}

TEST(Descriptor, ParsesFieldDescriptors) {
  auto T = parseFieldDescriptor("[[Ljava/lang/String;");
  ASSERT_TRUE(static_cast<bool>(T));
  EXPECT_EQ(T->Dims, 2);
  EXPECT_EQ(T->Base, 'L');
  EXPECT_EQ(T->ClassName, "java/lang/String");
  EXPECT_EQ(printTypeDesc(*T), "[[Ljava/lang/String;");

  auto P = parseFieldDescriptor("I");
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_EQ(P->Base, 'I');
  EXPECT_EQ(vtypeOf(*P), VType::Int);
}

TEST(Descriptor, ParsesMethodDescriptors) {
  auto M = parseMethodDescriptor("(I[JLjava/lang/String;)Ljava/lang/Object;");
  ASSERT_TRUE(static_cast<bool>(M));
  ASSERT_EQ(M->Params.size(), 3u);
  EXPECT_EQ(M->Params[0].Base, 'I');
  EXPECT_EQ(M->Params[1].Dims, 1);
  EXPECT_EQ(M->Params[1].Base, 'J');
  EXPECT_EQ(M->Params[2].ClassName, "java/lang/String");
  EXPECT_EQ(M->Ret.ClassName, "java/lang/Object");
  EXPECT_EQ(printMethodDesc(*M),
            "(I[JLjava/lang/String;)Ljava/lang/Object;");
}

TEST(Descriptor, RejectsMalformed) {
  EXPECT_FALSE(static_cast<bool>(parseFieldDescriptor("")));
  EXPECT_FALSE(static_cast<bool>(parseFieldDescriptor("Q")));
  EXPECT_FALSE(static_cast<bool>(parseFieldDescriptor("Labc")));
  EXPECT_FALSE(static_cast<bool>(parseFieldDescriptor("II")));
  EXPECT_FALSE(static_cast<bool>(parseFieldDescriptor("V")));
  EXPECT_FALSE(static_cast<bool>(parseMethodDescriptor("()")));
  EXPECT_FALSE(static_cast<bool>(parseMethodDescriptor("(V)V")));
  EXPECT_FALSE(static_cast<bool>(parseMethodDescriptor("I")));
}

// The canonical form keeps only what the packed format carries: debug
// and unknown attributes go, at every level.
TEST(Transform, StripRemovesDebugAttributes) {
  ClassFile CF = makeSampleClass();
  static constexpr uint8_t SourceFileBytes[] = {0, 1};
  static constexpr uint8_t FancyBytes[] = {1, 2, 3};
  static constexpr uint8_t MysteryBytes[] = {9, 9};
  CF.Attributes.push_back({"SourceFile", SourceFileBytes});
  CF.Attributes.push_back({"MysteryAttr", MysteryBytes});
  CF.Methods[0].Attributes.push_back({"UnknownFancyAttr", FancyBytes});
  ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  EXPECT_TRUE(CF.Attributes.empty());
  EXPECT_EQ(findAttribute(CF.Methods[0].Attributes, "UnknownFancyAttr"),
            nullptr);
  EXPECT_NE(findAttribute(CF.Methods[0].Attributes, "Code"), nullptr);
}

TEST(Transform, CanonicalizeGarbageCollects) {
  ClassFile CF = makeSampleClass();
  // Add garbage entries that nothing references.
  CF.CP.addUtf8("unused-string-constant-xyzzy");
  CF.CP.addClass("com/example/NeverReferenced");
  uint16_t Before = CF.CP.count();
  ASSERT_TRUE(!prepareForPacking(CF));
  EXPECT_LT(CF.CP.count(), Before);
  // The classfile still parses and refers to the right names.
  auto Parsed = parseClassFile(writeClassFile(CF));
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(Parsed->thisClassName(), "com/example/Sample");
}

TEST(Transform, CanonicalizeIsIdempotent) {
  ClassFile CF = makeSampleClass();
  ASSERT_TRUE(!prepareForPacking(CF));
  std::vector<uint8_t> Once = writeClassFile(CF);
  ASSERT_TRUE(!prepareForPacking(CF));
  EXPECT_EQ(writeClassFile(CF), Once);
}

TEST(Transform, LdcConstantsGetLowIndices) {
  ClassFile CF = makeSampleClass();
  ASSERT_TRUE(!prepareForPacking(CF));
  // Every ldc operand in every method must be <= 255 after
  // canonicalization (§9).
  for (const MemberInfo &M : CF.Methods) {
    const AttributeInfo *A = findAttribute(M.Attributes, "Code");
    if (!A)
      continue;
    auto Code = parseCodeAttribute(*A, CF.CP);
    ASSERT_TRUE(static_cast<bool>(Code));
    auto Insns = decodeCode(Code->Code);
    ASSERT_TRUE(static_cast<bool>(Insns));
    for (const Insn &I : *Insns)
      if (I.Opcode == Op::Ldc) {
        EXPECT_LE(I.CpIndex, 0xFF);
        EXPECT_TRUE(CF.CP.isValidIndex(I.CpIndex));
      }
  }
}

TEST(Transform, SortsUtf8ByContent) {
  ClassFile CF = makeSampleClass();
  ASSERT_TRUE(!prepareForPacking(CF));
  // All Utf8 entries must appear as one contiguous, sorted block.
  std::vector<std::string> Texts;
  for (uint16_t I = 1; I < CF.CP.count(); ++I)
    if (CF.CP.isValidIndex(I) && CF.CP.entry(I).Tag == CpTag::Utf8)
      Texts.emplace_back(CF.CP.utf8(I));
  ASSERT_FALSE(Texts.empty());
  EXPECT_TRUE(std::is_sorted(Texts.begin(), Texts.end()));
}

// The packed format has no slot for an unknown attribute, so the
// canonical form refuses to carry one: at class, field and method level
// and nested in Code it is dropped, not failed on, and leaves nothing
// behind — the prepared class is byte-identical to one that never had
// it, and its name is gone from the pool.
TEST(Transform, CanonicalizeRejectsUnknownAttributes) {
  ClassFile Plain = makeSampleClass();
  ClassFile CF = makeSampleClass();
  static constexpr uint8_t MysteryBytes[] = {9, 9};
  CF.Attributes.push_back({"MysteryAttr", MysteryBytes});
  CF.Fields[0].Attributes.push_back({"MysteryAttr", MysteryBytes});
  CF.Methods[0].Attributes.push_back({"MysteryAttr", MysteryBytes});
  bool Nested = false;
  for (AttributeInfo &A : CF.Methods[1].Attributes) {
    if (A.Name != "Code")
      continue;
    auto Code = parseCodeAttribute(A, CF.CP);
    ASSERT_TRUE(static_cast<bool>(Code)) << Code.message();
    Code->Attributes.push_back({"NestedMysteryAttr", MysteryBytes});
    A = encodeCodeAttribute(*Code, CF.CP);
    Nested = true;
  }
  ASSERT_TRUE(Nested);
  auto HasUtf8 = [&CF](std::string_view Text) {
    for (uint16_t I = 1; I < CF.CP.count(); ++I)
      if (CF.CP.isValidIndex(I) && CF.CP.entry(I).Tag == CpTag::Utf8 &&
          CF.CP.utf8(I) == Text)
        return true;
    return false;
  };
  ASSERT_TRUE(HasUtf8("NestedMysteryAttr"));
  ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  ASSERT_FALSE(static_cast<bool>(prepareForPacking(Plain)));
  EXPECT_EQ(findAttribute(CF.Attributes, "MysteryAttr"), nullptr);
  EXPECT_EQ(findAttribute(CF.Fields[0].Attributes, "MysteryAttr"), nullptr);
  EXPECT_EQ(findAttribute(CF.Methods[0].Attributes, "MysteryAttr"), nullptr);
  EXPECT_FALSE(HasUtf8("NestedMysteryAttr"));
  EXPECT_EQ(writeClassFile(CF), writeClassFile(Plain));
}

TEST(CodeAttribute, ParseEncodeRoundTrip) {
  ClassFile CF = makeSampleClass();
  const AttributeInfo *A = findAttribute(CF.Methods[1].Attributes, "Code");
  ASSERT_NE(A, nullptr);
  auto Code = parseCodeAttribute(*A, CF.CP);
  ASSERT_TRUE(static_cast<bool>(Code));
  AttributeInfo Re = encodeCodeAttribute(*Code, CF.CP);
  EXPECT_TRUE(std::equal(Re.Bytes.begin(), Re.Bytes.end(), A->Bytes.begin(),
                         A->Bytes.end()));
}

// A nested attribute's name must index a Utf8 entry; any other kind is
// Corrupt, not a nameless attribute.
TEST(CodeAttribute, RejectsNonUtf8NestedAttributeName) {
  ClassFile CF = makeSampleClass();
  auto Nested = [&CF](uint16_t NameIdx) {
    ByteWriter W;
    W.writeU2(1); // max_stack
    W.writeU2(1); // max_locals
    W.writeU4(1); // code_length
    W.writeU1(static_cast<uint8_t>(Op::Return));
    W.writeU2(0); // exception_table_length
    W.writeU2(1); // attributes_count
    W.writeU2(NameIdx);
    W.writeU4(0);
    AttributeInfo A;
    A.Name = "Code";
    A.Bytes = CF.arena().adopt(W.take());
    return parseCodeAttribute(A, CF.CP);
  };
  auto Named = Nested(CF.CP.addUtf8("MysteryAttr"));
  ASSERT_TRUE(static_cast<bool>(Named)) << Named.message();
  ASSERT_EQ(Named->Attributes.size(), 1u);
  EXPECT_EQ(Named->Attributes[0].Name, "MysteryAttr");
  auto Unnamed = Nested(CF.ThisClass);
  ASSERT_FALSE(static_cast<bool>(Unnamed));
  EXPECT_EQ(Unnamed.code(), ErrorCode::Corrupt) << Unnamed.message();
}

// The canonical order pinned over every kind it places. The SHA-1 was
// recorded from the pool canonicalizer that prepareForPacking replaced;
// the two forms agree on this class.
TEST(Transform, CanonicalOrderOfEveryKindIsPinned) {
  ClassFile CF = makeEveryKindClass(/*LoadHandles=*/false);
  ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  std::vector<uint8_t> Bytes = writeClassFile(CF);
  EXPECT_EQ(sha1Hex(Bytes), "3e08c36c466f544a9e0638eafe5cdb19b41a80fa");
  // The ldc constants lead, the Utf8 entries close the pool.
  EXPECT_EQ(CF.CP.entry(1).Tag, CpTag::Integer);
  EXPECT_EQ(CF.CP.entry(CF.CP.count() - 1).Tag, CpTag::Utf8);
  auto Parsed = parseClassFile(Bytes);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
}

// The wire carries no MethodType or MethodHandle constant, so
// prepareForPacking refuses a class that loads one, as packing does.
TEST(Transform, PrepareRefusesMethodHandleConstants) {
  ClassFile CF = makeEveryKindClass(/*LoadHandles=*/true);
  auto Packed = packClasses({CF}, PackOptions());
  ASSERT_FALSE(static_cast<bool>(Packed));
  Error E = prepareForPacking(CF);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), Packed.message());
}

// writeClassFile resolves attribute names without modifying the pool;
// a name the pool lacks ("Code", "ConstantValue" here) is still appended
// to the pool it writes, with pinned bytes.
TEST(Writer, NamesMissingFromThePoolAreAppended) {
  ClassFile CF = makeSampleClass();
  uint16_t Count = CF.CP.count();
  std::vector<uint8_t> Bytes = writeClassFile(CF);
  EXPECT_EQ(CF.CP.count(), Count);
  EXPECT_EQ(sha1Hex(Bytes), "e30f0f2a694bf13088e2559c7293c43608373cea");
  auto Parsed = parseClassFile(Bytes);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(Parsed->CP.count(), Count + 2);
  EXPECT_NE(findAttribute(Parsed->Methods[0].Attributes, "Code"), nullptr);
  EXPECT_EQ(writeClassFile(*Parsed), Bytes);
}

// A reference to an index past the end of the pool is Corrupt, found
// where it is read: nothing checks the pool before the class lowers.
TEST(Transform, CanonicalizeRejectsDanglingReference) {
  ClassFile CF = makeSampleClass();
  uint16_t NameType = CF.CP.addNameAndType("x", "I");
  CpEntry Field;
  Field.Tag = CpTag::FieldRef;
  Field.Ref1 = 16386;
  Field.Ref2 = NameType;
  uint16_t Dangling = CF.CP.appendRaw(Field);
  CF.CP.invalidateIndex();
  ByteWriter W;
  W.writeU1(static_cast<uint8_t>(Op::GetStatic));
  W.writeU2(Dangling);
  W.writeU1(static_cast<uint8_t>(Op::Pop));
  W.writeU1(static_cast<uint8_t>(Op::Return));
  CodeAttribute Code;
  Code.MaxStack = 1;
  Code.MaxLocals = 1;
  Code.Code = CF.arena().copy(W.data());
  MemberInfo Read;
  Read.AccessFlags = AccPublic;
  Read.NameIndex = CF.CP.addUtf8("read");
  Read.DescriptorIndex = CF.CP.addUtf8("()V");
  Read.Attributes.push_back(encodeCodeAttribute(Code, CF.CP));
  CF.Methods.push_back(std::move(Read));
  Error E = prepareForPacking(CF);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.code(), ErrorCode::Corrupt) << E.message();
}

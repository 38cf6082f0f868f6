//===- inspect_classfile.cpp - a javap-style disassembler ------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
// Exercises the classfile and bytecode substrates as a standalone tool:
// parse a .class file (or, with no argument, one generated by the
// corpus) and print its constant pool, members, and disassembled
// bytecode with the approximate stack state (§7.1) annotated per
// instruction — a visualization of exactly what the packer's collapse
// logic sees.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Instruction.h"
#include "bytecode/StackState.h"
#include "classfile/Descriptor.h"
#include "classfile/Reader.h"
#include "corpus/Corpus.h"
#include <cstdio>
#include <fstream>

using namespace cjpack;

namespace {

char vtypeChar(VType T) {
  switch (T) {
  case VType::Int: return 'I';
  case VType::Long: return 'J';
  case VType::Float: return 'F';
  case VType::Double: return 'D';
  case VType::Ref: return 'A';
  case VType::Void: return 'V';
  case VType::Unknown: return '?';
  }
  return '?';
}

/// Builds the InsnTypes for the stack machine from the constant pool
/// (what the packer derives from its model). An invoke's argument types
/// go into \p Args, which the result's ArgTypes views.
InsnTypes typesFromPool(const ClassFile &CF, const Insn &I,
                        std::vector<VType> &Args) {
  InsnTypes T;
  if (!I.hasCpOperand() || !CF.CP.isValidIndex(I.CpIndex))
    return T;
  const CpEntry &E = CF.CP.entry(I.CpIndex);
  switch (cpRefKind(I.Opcode)) {
  case CpRefKind::LoadConst:
  case CpRefKind::LoadConst2:
    switch (E.Tag) {
    case CpTag::Integer: T.ConstType = VType::Int; break;
    case CpTag::Float: T.ConstType = VType::Float; break;
    case CpTag::Long: T.ConstType = VType::Long; break;
    case CpTag::Double: T.ConstType = VType::Double; break;
    case CpTag::String: T.ConstType = VType::Ref; break;
    default: break;
    }
    break;
  case CpRefKind::FieldInstance:
  case CpRefKind::FieldStatic:
    if (E.Tag == CpTag::FieldRef)
      T.FieldType = vtypeOfFieldDescriptor(
          CF.CP.utf8(CF.CP.entry(E.Ref2).Ref2));
    break;
  case CpRefKind::MethodVirtual:
  case CpRefKind::MethodSpecial:
  case CpRefKind::MethodStatic:
  case CpRefKind::MethodInterface:
    if ((E.Tag == CpTag::MethodRef || E.Tag == CpTag::InterfaceMethodRef) &&
        vtypesOfMethodDescriptor(CF.CP.utf8(CF.CP.entry(E.Ref2).Ref2), Args,
                                 T.RetType))
      T.ArgTypes = Args;
    break;
  default:
    break;
  }
  return T;
}

std::string describeCpEntry(const ClassFile &CF, uint16_t Index) {
  if (!CF.CP.isValidIndex(Index))
    return "#" + std::to_string(Index);
  const CpEntry &E = CF.CP.entry(Index);
  switch (E.Tag) {
  case CpTag::Utf8:
    return "\"" + std::string(E.Text) + "\"";
  case CpTag::Integer:
    return std::to_string(static_cast<int32_t>(E.Bits));
  case CpTag::Long:
    return std::to_string(static_cast<int64_t>(E.Bits)) + "L";
  case CpTag::Float:
    return "float<0x" + std::to_string(E.Bits) + ">";
  case CpTag::Double:
    return "double<0x" + std::to_string(E.Bits) + ">";
  case CpTag::Class:
    return std::string(CF.CP.className(Index));
  case CpTag::String:
    return "\"" + std::string(CF.CP.utf8(E.Ref1)) + "\"";
  case CpTag::FieldRef:
  case CpTag::MethodRef:
  case CpTag::InterfaceMethodRef: {
    const CpEntry &NT = CF.CP.entry(E.Ref2);
    return std::string(CF.CP.className(E.Ref1)) + "." +
           std::string(CF.CP.utf8(NT.Ref1)) + ":" +
           std::string(CF.CP.utf8(NT.Ref2));
  }
  case CpTag::NameAndType:
    return std::string(CF.CP.utf8(E.Ref1)) + ":" +
           std::string(CF.CP.utf8(E.Ref2));
  default:
    return std::string(cpTagName(E.Tag)) + "#" + std::to_string(Index);
  }
}

void disassemble(const ClassFile &CF, const CodeAttribute &Code) {
  auto Insns = decodeCode(Code.Code);
  if (!Insns) {
    printf("      <malformed code: %s>\n", Insns.message().c_str());
    return;
  }
  StackState State;
  State.startMethod();
  std::vector<VType> Args;
  for (const Insn &I : *Insns) {
    std::string Operand;
    if (I.hasCpOperand())
      Operand = describeCpEntry(CF, I.CpIndex);
    else if (I.isBranch())
      Operand = "-> " + std::to_string(I.BranchTarget);
    else if (I.isSwitch())
      Operand = std::to_string(I.SwitchTargets.size()) + " targets";
    else if (opInfo(I.Opcode).Format == OpFormat::LocalU1 ||
             opInfo(I.Opcode).Format == OpFormat::Iinc)
      Operand = "local " + std::to_string(I.LocalIndex);
    else if (opInfo(I.Opcode).Format == OpFormat::S1 ||
             opInfo(I.Opcode).Format == OpFormat::S2)
      Operand = std::to_string(I.Const);
    printf("      %4u: %-16s %-40s stack=%c%c\n", I.Offset,
           opInfo(I.Opcode).Mnemonic, Operand.c_str(),
           vtypeChar(State.top(1)), vtypeChar(State.top(0)));
    InsnTypes T = typesFromPool(CF, I, Args);
    State.apply(I, &T);
  }
}

void inspect(const ClassFile &CF) {
  printf("class %s", std::string(CF.thisClassName()).c_str());
  if (CF.SuperClass != 0)
    printf(" extends %s", std::string(CF.superClassName()).c_str());
  for (uint16_t I : CF.Interfaces)
    printf(" implements %s", std::string(CF.CP.className(I)).c_str());
  printf("\n  version %u.%u, flags 0x%04x, %u constant pool slots\n",
         CF.MajorVersion, CF.MinorVersion, CF.AccessFlags,
         CF.CP.count());

  printf("  fields:\n");
  for (const MemberInfo &F : CF.Fields)
    printf("    %s : %s%s\n", std::string(CF.CP.utf8(F.NameIndex)).c_str(),
           std::string(CF.CP.utf8(F.DescriptorIndex)).c_str(),
           findAttribute(F.Attributes, "ConstantValue") ? " (const)"
                                                        : "");
  printf("  methods:\n");
  for (const MemberInfo &M : CF.Methods) {
    printf("    %s%s\n", std::string(CF.CP.utf8(M.NameIndex)).c_str(),
           std::string(CF.CP.utf8(M.DescriptorIndex)).c_str());
    const AttributeInfo *A = findAttribute(M.Attributes, "Code");
    if (!A)
      continue;
    auto Code = parseCodeAttribute(*A, CF.CP);
    if (!Code)
      continue;
    printf("      (max_stack=%u, max_locals=%u, %zu exception "
           "regions)\n",
           Code->MaxStack, Code->MaxLocals,
           Code->ExceptionTable.size());
    disassemble(CF, *Code);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2) {
    std::ifstream In(Argv[1], std::ios::binary);
    if (!In) {
      fprintf(stderr, "inspect_classfile: cannot read %s\n", Argv[1]);
      return 1;
    }
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                               std::istreambuf_iterator<char>());
    auto CF = parseClassFile(Bytes);
    if (!CF) {
      fprintf(stderr, "inspect_classfile: %s\n", CF.message().c_str());
      return 1;
    }
    inspect(*CF);
    return 0;
  }
  // No argument: inspect a generated demo class.
  CorpusSpec Spec;
  Spec.Name = "inspect";
  Spec.Seed = 5;
  Spec.NumClasses = 3;
  Spec.NumPackages = 1;
  Spec.MeanMethods = 3;
  Spec.MeanStatements = 6;
  std::vector<ClassFile> Classes = generateCorpusClasses(Spec);
  inspect(Classes.front());
  return 0;
}

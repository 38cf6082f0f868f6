//===- BenchCommon.cpp - shared benchmark harness support -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "bytecode/Instruction.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "pack/Packer.h"
#include <cstdio>
#include <cstdlib>

using namespace cjpack;

double cjpack::benchScale() {
  const char *Env = getenv("CJPACK_SCALE");
  if (!Env)
    return 1.0;
  double Scale = atof(Env);
  return Scale > 0 ? Scale : 1.0;
}

BenchData cjpack::loadBench(const CorpusSpec &Spec) {
  BenchData B;
  B.Spec = Spec;
  B.RawClasses = generateCorpus(Spec);
  for (const NamedClass &C : B.RawClasses) {
    auto CF = parseClassFile(C.Data);
    if (!CF) {
      fprintf(stderr, "bench: %s: %s\n", C.Name.c_str(),
              CF.message().c_str());
      exit(1);
    }
    if (auto E = prepareForPacking(*CF)) {
      fprintf(stderr, "bench: %s: %s\n", C.Name.c_str(),
              E.message().c_str());
      exit(1);
    }
    B.StrippedBytes.push_back(
        {std::string(CF->thisClassName()) + ".class", writeClassFile(*CF)});
    B.Prepared.push_back(std::move(*CF));
  }
  return B;
}

std::vector<BenchData> cjpack::loadAllBenches() {
  std::vector<BenchData> Out;
  for (const CorpusSpec &Spec : paperBenchmarks(benchScale()))
    Out.push_back(loadBench(Spec));
  return Out;
}

BaselineSizes cjpack::baselineSizes(const BenchData &B) {
  BaselineSizes S;
  S.Sj0r = totalClassBytes(B.StrippedBytes);
  S.Jar = buildJar(B.RawClasses).size();
  S.Sjar = buildJar(B.StrippedBytes).size();
  S.Sj0rGz = buildJ0rGz(B.StrippedBytes).size();
  return S;
}

RawCodeStreams
cjpack::extractRawCodeStreams(const std::vector<ClassFile> &Classes) {
  RawCodeStreams Out;
  for (const ClassFile &CF : Classes) {
    for (const MemberInfo &M : CF.Methods) {
      const AttributeInfo *A = findAttribute(M.Attributes, "Code");
      if (!A)
        continue;
      auto Code = parseCodeAttribute(*A, CF.CP);
      if (!Code)
        continue;
      Out.Bytestream.insert(Out.Bytestream.end(), Code->Code.begin(),
                            Code->Code.end());
      auto Insns = decodeCode(Code->Code);
      if (!Insns)
        continue;
      for (const Insn &I : *Insns) {
        if (I.IsWide)
          Out.Opcodes.push_back(static_cast<uint8_t>(Op::Wide));
        Out.Opcodes.push_back(static_cast<uint8_t>(I.Opcode));
      }
    }
  }
  return Out;
}

std::string cjpack::withCommas(size_t N) {
  std::string Raw = std::to_string(N);
  std::string Out;
  int Count = 0;
  for (auto It = Raw.rbegin(); It != Raw.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Out.insert(Out.begin(), ',');
    Out.insert(Out.begin(), *It);
    ++Count;
  }
  return Out;
}

std::string cjpack::pct(size_t A, size_t B) {
  if (B == 0)
    return "-";
  return std::to_string((A * 100 + B / 2) / B) + "%";
}

std::string cjpack::jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

void JsonObject::add(const std::string &Key, const std::string &V) {
  Fields.emplace_back(Key, jsonQuote(V));
}

void JsonObject::add(const std::string &Key, const char *V) {
  Fields.emplace_back(Key, jsonQuote(V));
}

void JsonObject::add(const std::string &Key, uint64_t V) {
  Fields.emplace_back(Key, std::to_string(V));
}

void JsonObject::add(const std::string &Key, double V) {
  char Buf[48];
  snprintf(Buf, sizeof(Buf), "%.6g", V);
  Fields.emplace_back(Key, Buf);
}

void JsonObject::add(const std::string &Key, bool V) {
  Fields.emplace_back(Key, V ? "true" : "false");
}

void JsonObject::addRaw(const std::string &Key, const std::string &RawJson) {
  Fields.emplace_back(Key, RawJson);
}

std::string JsonObject::str(unsigned Indent) const {
  std::string Pad(Indent, ' ');
  std::string Out = "{";
  for (size_t I = 0; I < Fields.size(); ++I) {
    Out += I ? ",\n" : "\n";
    Out += Pad + "  " + jsonQuote(Fields[I].first) + ": " +
           Fields[I].second;
  }
  Out += "\n" + Pad + "}";
  return Out;
}

void cjpack::writeBenchJson(FILE *Out, const JsonObject &Header,
                            const std::vector<JsonObject> &Rows) {
  std::string Doc = Header.str();
  // Splice the rows array in before the header object's closing brace.
  Doc.erase(Doc.size() - 2); // "\n}"
  Doc += ",\n  \"rows\": [";
  for (size_t I = 0; I < Rows.size(); ++I) {
    Doc += I ? ",\n    " : "\n    ";
    Doc += Rows[I].str(4);
  }
  Doc += "\n  ]\n}\n";
  fputs(Doc.c_str(), Out);
}

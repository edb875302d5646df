//===- perfbench/harness/Bench.cpp ----------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace pb;

void pb::jsonQuote(std::string &Out, std::string_view S) {
  Out.push_back('"');
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  Out.push_back('"');
}

static std::string fmt(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

bool Spans::writeJsonl(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  for (const Span &S : List) {
    std::string L = "{\"name\":";
    jsonQuote(L, S.Name);
    L += ",\"start\":" + std::to_string(S.Start) +
         ",\"end\":" + std::to_string(S.End) +
         ",\"parent\":" + std::to_string(S.Parent) +
         ",\"job\":" + std::to_string(S.Job);
    if (S.ExclName) {
      L += ",\"excl\":" + std::to_string(S.ExclNs) + ",\"excl_name\":";
      jsonQuote(L, S.ExclName);
    }
    L += "}\n";
    Out << L;
  }
  return static_cast<bool>(Out);
}

void Report::fail(const std::string &Why) {
  ++Failed;
  ++FailReasons[Why];
}

void Report::print() const {
  std::string O = "{\"correct\":";
  O += Correct ? "true" : "false";
  O += ",\"attempted\":" + std::to_string(Attempted);
  O += ",\"failed\":" + std::to_string(Failed);
  O += ",\"fail_reasons\":{";
  bool First = true;
  for (const auto &[K, V] : FailReasons) {
    if (!First)
      O += ',';
    First = false;
    jsonQuote(O, K);
    O += ':' + std::to_string(V);
  }
  O += "},\"nums\":{";
  First = true;
  for (const auto &[K, V] : Nums) {
    if (!First)
      O += ',';
    First = false;
    jsonQuote(O, K);
    O += ':' + fmt(V);
  }
  O += "},\"arrays\":{";
  First = true;
  for (const auto &[K, V] : Arrays) {
    if (!First)
      O += ',';
    First = false;
    jsonQuote(O, K);
    O += ":[";
    for (size_t I = 0; I < V.size(); ++I) {
      if (I)
        O += ',';
      O += fmt(V[I]);
    }
    O += ']';
  }
  O += "}}";
  std::cout << O << std::endl;
}

double pb::selfPeakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

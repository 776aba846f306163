#include "compiler/builtins.h"

#include "xml/node.h"

namespace aldsp::compiler {

namespace {

struct Entry {
  const char* local;
  Builtin builtin;
  int min_args;
  int max_args;
  bool bea;  // lives in the fn-bea: namespace
};

constexpr Entry kEntries[] = {
    {"data", Builtin::kData, 1, 1, false},
    {"count", Builtin::kCount, 1, 1, false},
    {"sum", Builtin::kSum, 1, 1, false},
    {"avg", Builtin::kAvg, 1, 1, false},
    {"min", Builtin::kMin, 1, 1, false},
    {"max", Builtin::kMax, 1, 1, false},
    {"exists", Builtin::kExists, 1, 1, false},
    {"empty", Builtin::kEmpty, 1, 1, false},
    {"subsequence", Builtin::kSubsequence, 2, 3, false},
    {"concat", Builtin::kConcat, 1, 16, false},
    {"string", Builtin::kString, 1, 1, false},
    {"string-length", Builtin::kStringLength, 1, 1, false},
    {"upper-case", Builtin::kUpperCase, 1, 1, false},
    {"lower-case", Builtin::kLowerCase, 1, 1, false},
    {"substring", Builtin::kSubstring, 2, 3, false},
    {"contains", Builtin::kContains, 2, 2, false},
    {"starts-with", Builtin::kStartsWith, 2, 2, false},
    {"string-join", Builtin::kStringJoin, 2, 2, false},
    {"not", Builtin::kNot, 1, 1, false},
    {"true", Builtin::kTrue, 0, 0, false},
    {"false", Builtin::kFalse, 0, 0, false},
    {"distinct-values", Builtin::kDistinctValues, 1, 1, false},
    {"number", Builtin::kNumber, 1, 1, false},
    {"boolean", Builtin::kBoolean, 1, 1, false},
    {"deep-equal", Builtin::kDeepEqual, 2, 2, false},
    {"abs", Builtin::kAbs, 1, 1, false},
    {"floor", Builtin::kFloor, 1, 1, false},
    {"ceiling", Builtin::kCeiling, 1, 1, false},
    {"round", Builtin::kRound, 1, 1, false},
    {"async", Builtin::kAsync, 1, 1, true},
    {"timeout", Builtin::kTimeout, 3, 3, true},
    {"fail-over", Builtin::kFailOver, 2, 2, true},
};

}  // namespace

Builtin LookupBuiltin(const std::string& name) {
  size_t colon = name.find(':');
  std::string prefix = colon == std::string::npos ? "" : name.substr(0, colon);
  std::string local = xml::LocalName(name);
  if (!prefix.empty() && prefix != "fn" && prefix != "fn-bea") {
    return Builtin::kUnknown;
  }
  for (const auto& e : kEntries) {
    if (local != e.local) continue;
    if (e.bea && prefix == "fn") continue;      // fn:async is not a thing
    if (!e.bea && prefix == "fn-bea") continue;
    return e.builtin;
  }
  return Builtin::kUnknown;
}

bool BuiltinArity(Builtin b, int* min_args, int* max_args) {
  for (const auto& e : kEntries) {
    if (e.builtin == b) {
      *min_args = e.min_args;
      *max_args = e.max_args;
      return true;
    }
  }
  return false;
}

const char* BuiltinName(Builtin b) {
  for (const auto& e : kEntries) {
    if (e.builtin == b) return e.local;
  }
  return "unknown";
}

}  // namespace aldsp::compiler

#ifndef ALDSP_COMPILER_BUILTINS_H_
#define ALDSP_COMPILER_BUILTINS_H_

#include <string>

namespace aldsp::compiler {

/// Built-in XQuery functions supported by the platform, including the
/// fn-bea:* extensions of paper §5.4/§5.6 (async, timeout, fail-over).
enum class Builtin {
  kUnknown = 0,
  kData,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kExists,
  kEmpty,
  kSubsequence,
  kConcat,
  kString,
  kStringLength,
  kUpperCase,
  kLowerCase,
  kSubstring,
  kContains,
  kStartsWith,
  kStringJoin,
  kNot,
  kTrue,
  kFalse,
  kDistinctValues,
  kNumber,
  kBoolean,
  kDeepEqual,
  kAbs,
  kFloor,
  kCeiling,
  kRound,
  kAsync,     // fn-bea:async
  kTimeout,   // fn-bea:timeout
  kFailOver,  // fn-bea:fail-over
};

/// Resolves a (possibly prefixed) function name to a builtin; accepts the
/// fn: prefix, the fn-bea: prefix for extensions, and unprefixed names.
Builtin LookupBuiltin(const std::string& name);

/// Expected argument count range; returns false if `name` is not builtin.
bool BuiltinArity(Builtin b, int* min_args, int* max_args);

const char* BuiltinName(Builtin b);

}  // namespace aldsp::compiler

#endif  // ALDSP_COMPILER_BUILTINS_H_

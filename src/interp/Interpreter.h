//===----------------------------------------------------------------------===//
///
/// \file
/// A direct interpreter for the Nascent IR with dynamic instruction and
/// range-check counters. This is the measurement substrate replacing the
/// paper's instrumented-C back end: the optimizer rewrites the IR and the
/// interpreter counts exactly what executes, so "percentage of dynamic
/// checks eliminated" is measured, not modelled.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_INTERP_INTERPRETER_H
#define NASCENT_INTERP_INTERPRETER_H

#include "ir/Function.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nascent {

namespace obs {
class ExecutionProfile;
}

/// Interpreter limits and switches.
struct InterpOptions {
  /// Abort with Status::StepLimit after this many executed instructions.
  uint64_t MaxSteps = 2'000'000'000;
  /// Maximum call depth.
  unsigned MaxCallDepth = 256;
  /// When non-null and attached to the module being run, the interpreter
  /// streams block frequencies, loop trip counts, array accesses, and
  /// per-site check hits/traps into this profile. Counts accumulate
  /// across runs; the caller owns the profile.
  obs::ExecutionProfile *Profile = nullptr;
};

/// Result of executing a module.
struct ExecResult {
  enum class Status {
    Ok,        ///< ran to completion
    Trapped,   ///< a range check (or Trap instruction) fired
    HardFault, ///< an actual out-of-bounds access or missing return --
               ///< with naive checks in place this indicates an optimizer
               ///< bug, and the test suite asserts it never happens
    StepLimit,
    CallDepthExceeded,
  };

  Status St = Status::Ok;

  /// Executed non-check instructions.
  uint64_t DynInstrs = 0;
  /// Executed range checks (Check + CondCheck).
  uint64_t DynChecks = 0;
  /// Executed conditional checks (subset of DynChecks).
  uint64_t DynCondChecks = 0;

  /// Values printed by Print instructions, in order.
  std::vector<std::string> Output;

  /// Populated when St == Trapped or HardFault.
  std::string FaultMessage;

  bool ok() const { return St == Status::Ok; }
  bool trapped() const { return St == Status::Trapped; }
};

/// Executes \p M from its entry function.
ExecResult interpret(const Module &M, const InterpOptions &Opts = {});

/// Static (compile-time) counts over a module: instructions excluding
/// checks, and check instructions, mirroring Table 1's static columns.
struct StaticCounts {
  uint64_t Instrs = 0;
  uint64_t Checks = 0;
  uint64_t Loops = 0;
  uint64_t Units = 0;
};
StaticCounts countStatic(const Module &M);

} // namespace nascent

#endif // NASCENT_INTERP_INTERPRETER_H

//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented-C back end: translates a Nascent IR module into one
/// self-contained C file whose execution counts dynamic instructions and
/// range checks exactly like the interpreter does. This mirrors the
/// paper's measurement methodology ("the C back-end of Nascent translates
/// Fortran programs into instrumented C programs which are then compiled
/// and executed ... to obtain the dynamic counts").
///
/// The back end prints the interpreter's decoded form (interp/Decoded.h),
/// one C statement per decoded op, so both run one semantics: the same
/// types and conversions, checks judged by their exact value, and integer
/// arithmetic that wraps without undefined behaviour in the C.
///
/// The emitted program prints the mini-Fortran `print` output to stdout,
/// one value per line, and a final counter line to stderr:
///
///   [nascent-counts] instrs=<N> checks=<N> condchecks=<N>
///
/// Where the interpreter traps (a failed check or a Trap) it prints
/// "[nascent-trap] <message>" with the interpreter's message and exits
/// with status 2; where it hard-faults (a zero divisor, an unknown callee,
/// the end of a block without a terminator) it prints
/// "[nascent-fault] <message>" and exits with status 3. The interpreter's
/// step and call-depth limits are not emitted.
///
/// With CEmitOptions::Profile the program additionally carries a static
/// counter table (saturating, like the interpreter's profile counters)
/// and an atexit dump that emits one stderr line per check site, block,
/// and array of the obs::ExecutionProfile skeleton, numbered as
/// ExecutionProfile::attach numbers them — the compiled-execution half of
/// the profile parity contract (docs/profiling.md):
///
///   [nascent-profsite] func=<f> block=<b> index=<i> tag=<t> hits=<h> traps=<t>
///   [nascent-profblock] func=<f> block=<b> count=<c>
///   [nascent-profarray] func=<f> array=<a> loads=<l> stores=<s>
///
/// The dump is registered with atexit before the program runs, so the
/// counters survive a trap exit.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_CBACKEND_CEMITTER_H
#define NASCENT_CBACKEND_CEMITTER_H

#include "ir/Function.h"

#include <string>

namespace nascent {

/// C back-end switches.
struct CEmitOptions {
  /// Emit the per-site/block/array profile counter table and atexit dump.
  bool Profile = false;
};

/// Translates \p M into a complete C translation unit.
std::string emitModuleToC(const Module &M, const CEmitOptions &Opts = {});

} // namespace nascent

#endif // NASCENT_CBACKEND_CEMITTER_H

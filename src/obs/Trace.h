//===----------------------------------------------------------------------===//
///
/// \file
/// The one timing record of a compile (CompileResult::Phases):
///
///  - PhaseTimings: every timed phase in opening order, each with its
///    name, start, wall duration and nesting depth. The pipeline's phases
///    (parse, lower, optimize, audit, ...) sit at depth 0 and are measured
///    on both clocks: wall via steady_clock, CPU via
///    CLOCK_THREAD_CPUTIME_ID, so a compile running on a BatchCompiler
///    worker charges only its own cycles. The optimizer's and the
///    auditor's sub-phases (per-function passes, CIG builds, data-flow
///    solves, audit stages) nest under them and read only the wall clock,
///    the cheap one. They are always recorded.
///  - ScopedPhase: the RAII timer that appends one entry.
///  - mergedTraceJson: renders one or more records as Chrome
///    `trace_event` JSON loadable in Perfetto / chrome://tracing.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_TRACE_H
#define NASCENT_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nascent {
namespace obs {

/// Current process CPU time in seconds (sums over all threads).
double processCpuSeconds();

/// Current CPU time of the calling thread in seconds. Phase timings use
/// this clock so a compile job measured on a BatchCompiler worker charges
/// only its own cycles, not every concurrent job's; in a single-threaded
/// process the two clocks advance identically.
double threadCpuSeconds();

/// Process-stable tag of the calling thread, for Chrome-trace `tid`
/// fields: small dense integers (1, 2, 3, ...) in first-use order, unlike
/// opaque platform thread ids. A record constructed on a BatchCompiler
/// worker carries that worker's tag, so merged timelines show one lane
/// per worker.
uint32_t currentThreadTag();

/// One timed phase.
struct PhaseTiming {
  std::string Name;
  double WallStart = 0;   ///< seconds from the record's origin to the start
  double WallSeconds = 0; ///< wall-clock duration
  /// CPU duration of the measuring thread; measured for depth-0 phases
  /// only (nested entries read only the wall clock and leave it 0).
  double CpuSeconds = 0;
  unsigned Depth = 0; ///< phases open around this one when it opened
};

/// The per-compile timing record. Entries are appended in the order they
/// open, so a parent precedes its children.
struct PhaseTimings {
  std::vector<PhaseTiming> Phases;
  /// The time point WallStart counts from: when the record was made.
  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  /// The tag of the thread that made the record (the `tid` of its spans).
  uint32_t Tid = currentThreadTag();

  /// The depth-0 phase of that name; null when it never ran.
  const PhaseTiming *find(const std::string &Name) const;
  /// Summed wall duration of every entry of that name; 0 when none ran.
  double wallOf(const std::string &Name) const;
  /// CPU duration of the depth-0 phase of that name; 0 when it never ran.
  double cpuOf(const std::string &Name) const;

private:
  friend class ScopedPhase;
  unsigned Open = 0; ///< scopes currently open
};

/// RAII timer appending one entry to a record, at the depth of the scopes
/// open around it. A null record makes the scope a no-op, which is what
/// direct callers of the optimizer or the auditor get by default.
class ScopedPhase {
public:
  ScopedPhase(PhaseTimings *PT, std::string Name);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;

private:
  PhaseTimings *PT;
  size_t Index = 0;
  std::chrono::steady_clock::time_point WallT0;
  double CpuT0 = 0;
};

/// One record to render, optionally labelled (the label becomes a
/// thread_name metadata record for its lane).
struct TraceMergeInput {
  const PhaseTimings *Phases = nullptr;
  std::string Label;
};

/// Renders records as one Chrome trace document of complete "X" spans:
/// every span keeps its record's `tid` lane, and timestamps (µs) are
/// shifted onto the earliest origin among the inputs so spans from
/// different workers line up on one timeline. Null inputs are skipped.
std::string mergedTraceJson(const std::vector<TraceMergeInput> &Inputs);

/// Writes mergedTraceJson() to \p Path; false (with \p Err) on I/O error.
bool writeMergedTraceFile(const std::vector<TraceMergeInput> &Inputs,
                          const std::string &Path,
                          std::string *Err = nullptr);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_TRACE_H

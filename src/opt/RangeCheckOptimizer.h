//===----------------------------------------------------------------------===//
///
/// \file
/// The range-check optimizer: the paper's five-step algorithm with its
/// seven check-placement schemes (section 3.3 / 4.2) and the implication
/// ablation modes (section 4.4). This is the primary public entry point
/// of the library.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_RANGECHECKOPTIMIZER_H
#define NASCENT_OPT_RANGECHECKOPTIMIZER_H

#include "ir/Function.h"
#include "checks/CheckImplicationGraph.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "support/Diagnostics.h"
#include "support/Hash.h"

#include <ostream>
#include <string>

namespace nascent {

namespace cache {
class ArtifactCache;
}

/// Check placement schemes, exactly the paper's seven.
enum class PlacementScheme {
  NI,  ///< redundancy elimination, no insertion
  CS,  ///< check strengthening only
  LNI, ///< latest-not-isolated PRE placement
  SE,  ///< safe-earliest PRE placement
  LI,  ///< preheader insertion of loop-invariant checks
  LLS, ///< preheader insertion with loop-limit substitution
  ALL, ///< LLS followed by SE
  /// Extension (not one of the paper's seven): the restricted preheader
  /// scheme of Markstein, Cocke, and Markstein (1982), which the paper
  /// proposes comparing against as future work -- only simple checks in
  /// articulation blocks of loop bodies are hoisted.
  MCM,
  /// Extension: compile-time-only elimination via value-range (interval)
  /// analysis, standing in for the abstract-interpretation school the
  /// paper contrasts with in section 5 (Cousot/Harrison/Ada compilers).
  /// No checks are moved or inserted; only statically discharged.
  AI,
};

/// Parses/prints scheme names ("NI", "CS", ...). Parsing is
/// case-insensitive; returns false on unknown names.
bool parsePlacementScheme(const std::string &Name, PlacementScheme &Out);
const char *placementSchemeName(PlacementScheme S);

/// Comma-separated list of every valid scheme name, for error messages.
const char *placementSchemeNames();

/// Optimizer configuration.
struct RangeCheckOptions {
  PlacementScheme Scheme = PlacementScheme::LLS;
  /// Which implications between checks may be exploited; None gives the
  /// paper's primed variants (NI', SE'), CrossFamilyOnly gives LLS'.
  ImplicationMode Implications = ImplicationMode::All;

  /// When set, each function and each of its passes appends a nested
  /// entry to this record (the pipeline passes CompileResult::Phases).
  obs::PhaseTimings *Phases = nullptr;
  /// The recorder every transformation site appends its lifecycle events
  /// to, keyed by check tag. Events are always recorded: when this is null
  /// each optimizeFunction records into a local recorder. They are the
  /// passes' only per-decision record; the decision fields of
  /// OptimizerStats, the opt.* counters and remarks (obs/Remarks.h) are
  /// all counted from them.
  obs::ProvenanceRecorder *Provenance = nullptr;

  /// When both are set, the optimizer consults the artifact cache for
  /// analysis results (CheckContext seeds, dominator/loop forests) keyed
  /// under ModuleKey — the frontend key of the module being optimized —
  /// and stores what it computes for the next identical compile
  /// (docs/caching.md). Telemetry is byte-identical with or without it.
  cache::ArtifactCache *Cache = nullptr;
  support::Hash128 ModuleKey;
};

/// X-macro over every field of OptimizerStats, in declaration order.
/// operator+=, print(), and toJson() are generated from this list, and a
/// static_assert in RangeCheckOptimizer.cpp pins the struct size so a new
/// field cannot be added without extending the list.
#define NASCENT_OPTIMIZER_STATS_FIELDS(X)                                      \
  X(ChecksBefore)                                                              \
  X(ChecksAfter)                                                               \
  X(ChecksDeleted)                                                             \
  X(ChecksInserted)                                                            \
  X(CondChecksInserted)                                                        \
  X(ChecksStrengthened)                                                        \
  X(Rehoisted)                                                                 \
  X(CompileTimeDeleted)                                                        \
  X(CompileTimeTraps)                                                          \
  X(IntervalDeleted)                                                           \
  X(UniverseSize)                                                              \
  X(NumFamilies)

/// Aggregate statistics of one optimizer run. ChecksBefore/ChecksAfter
/// count the IR and UniverseSize/NumFamilies describe the final check
/// context; the eight decision fields in between are counts of lifecycle
/// events through remarkKindFor's (kind, pass) table.
struct OptimizerStats {
  unsigned ChecksBefore = 0;
  unsigned ChecksAfter = 0; ///< static checks remaining (incl. cond checks)
  unsigned ChecksDeleted = 0;
  unsigned ChecksInserted = 0; ///< LCM-inserted plain checks
  unsigned CondChecksInserted = 0;
  unsigned ChecksStrengthened = 0;
  unsigned Rehoisted = 0;
  unsigned CompileTimeDeleted = 0;
  unsigned CompileTimeTraps = 0;
  unsigned IntervalDeleted = 0; ///< AI scheme: proved redundant by ranges
  size_t UniverseSize = 0;
  size_t NumFamilies = 0;

  OptimizerStats &operator+=(const OptimizerStats &R);

  /// One "<field>: <value>" line per field (all fields, zero or not).
  void print(std::ostream &OS) const;

  /// One flat JSON object with every field ({"ChecksBefore":N,...}).
  void writeJson(obs::JsonWriter &W) const;
  std::string toJson() const;
};

/// Optimizes the range checks of one function in place.
OptimizerStats optimizeFunction(Function &F, const RangeCheckOptions &Opts,
                                DiagnosticEngine &Diags);

/// Optimizes every function of \p M.
OptimizerStats optimizeModule(Module &M, const RangeCheckOptions &Opts,
                              DiagnosticEngine &Diags);

/// Cross-checks a provenance record against the optimizer statistics of
/// the same compilation, on the two counts that are independent of each
/// other: the record must validate (every lifecycle closed in a terminal
/// state, no dangling witness tags), and its Residualized events must
/// number exactly the static checks left in the IR (ChecksAfter). The
/// decision fields need no check: they are counted from the same events.
/// Returns one diagnostic string per violation; empty means the record
/// reconciles.
std::vector<std::string>
reconcileCheckProvenance(const obs::ProvenanceRecorder &PR,
                         const OptimizerStats &Stats);

} // namespace nascent

#endif // NASCENT_OPT_RANGECHECKOPTIMIZER_H

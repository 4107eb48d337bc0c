//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic execution profiles: per-site runtime check-cost attribution.
/// Where OptimizerStats and the provenance record describe what the
/// compiler *did* to every check, the execution profile describes what the
/// residual checks *cost* at run time — the paper's bottom-line claim is
/// dynamic, so the profile is the layer that turns "N checks survived"
/// into "these sites executed M checks against K array accesses".
///
/// One ExecutionProfile is attached to a compiled module and accumulates,
/// across any number of runs:
///
///   - block execution frequencies (per function, per BlockID)
///   - loop trip-count histograms for every counted `do` loop, including
///     the partial trip counts of entries cut short by a trap
///   - per-array load/store counts (the denominator of the paper's
///     Table-1 "checks per access" density)
///   - per-check-site dynamic hit and trap counts, keyed by the stable
///     CheckTag from the provenance subsystem — every dynamic cost line
///     links back to the full compile-time decision chain
///
/// Both execution paths feed the same structure: the Interpreter records
/// natively (InterpOptions::Profile), and the instrumented-C back end
/// emits a counter table plus an atexit dump whose per-site counts are
/// bit-identical to the interpreter's on the same program and input
/// (tests/cbackend/ProfileParityTest.cpp enforces the contract).
///
/// All counters are uint64_t and accumulate with saturating adds, so a
/// long run clamps at UINT64_MAX instead of silently wrapping. The
/// serialised form (a versioned `profileVersion` JSON envelope) is
/// byte-identical across repeated runs and BatchCompiler job counts; see
/// docs/profiling.md.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_PROFILE_H
#define NASCENT_OBS_PROFILE_H

#include "ir/CheckExpr.h"
#include "ir/Instruction.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nascent {

class Function;
class Module;

namespace obs {

class JsonWriter;
struct JsonValue;

/// Version of the execution-profile document schema, carried as
/// "profileVersion" next to the envelope-wide "schemaVersion". Bump on any
/// incompatible shape change and teach validateProfileDocument the new
/// shape.
constexpr int64_t ProfileVersion = 1;

/// Saturating 64-bit accumulate: clamps at UINT64_MAX instead of
/// wrapping. Every dynamic counter in the profile (and the interpreter's
/// per-site check counts) goes through this, so huge-input runs for the
/// future VM tier degrade to "at least this many" rather than lying.
inline uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  uint64_t S = A + B;
  return S < A ? ~uint64_t(0) : S;
}
inline void saturatingInc(uint64_t &C, uint64_t Delta = 1) {
  C = saturatingAdd(C, Delta);
}

/// Dynamic record of one residual range-check instruction.
struct CheckSiteProfile {
  CheckTag Tag = NoCheckTag; ///< lifecycle tag (joins to provenance)
  BlockID Block = 0;
  uint32_t Index = 0;        ///< instruction index within the block
  bool Conditional = false;  ///< CondCheck rather than Check
  std::string CheckStr;      ///< rendered check, e.g. "Check(i - n <= 0)"
  CheckOrigin Origin;        ///< source provenance (array, dim, side, loc)
  uint64_t Hits = 0;         ///< executions, including a trapping one
  uint64_t Traps = 0;        ///< executions that failed the check
};

/// Trip-count behaviour of one counted `do` loop.
struct LoopProfile {
  BlockID Preheader = InvalidBlock;
  BlockID Header = InvalidBlock;
  uint64_t Entries = 0;        ///< times control entered via the preheader
  uint64_t Iterations = 0;     ///< total body iterations over all entries
  uint64_t PartialEntries = 0; ///< entries cut short by a trap or return
  /// Completed trips per entry -> number of entries with that trip count.
  /// Partial entries contribute the trips executed up to the cut.
  std::map<uint64_t, uint64_t> TripHistogram;
};

/// Dynamic load/store counts of one array.
struct ArrayProfile {
  std::string Name;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
};

/// Everything recorded for one function.
struct FunctionProfile {
  std::string Name;
  std::vector<std::string> BlockNames; ///< by BlockID
  std::vector<uint64_t> BlockCounts;   ///< executions, by BlockID
  std::vector<LoopProfile> Loops;      ///< parallel to Function::doLoops()
  std::vector<ArrayProfile> Arrays;    ///< array symbols, SymbolID order
  std::vector<CheckSiteProfile> Sites; ///< (block, index) order
};

/// Per-frame loop-iteration state. The interpreter owns one per call
/// frame (loops in recursive calls count independently) and hands it back
/// to the profile on every block entry and at frame teardown.
struct ProfileFrameState {
  std::vector<uint64_t> Trips; ///< current-entry body iterations, by loop
  std::vector<char> Active;    ///< inside an entry of this loop?
};

/// The execution profile of one compiled module. attach() builds the
/// structural skeleton (every block, loop, array, and residual check site,
/// all at zero) plus the lookup plans the recording hot path needs; the
/// interpreter then streams events into it. Multiple runs accumulate.
class ExecutionProfile {
public:
  static constexpr size_t NoFunction = ~size_t(0);

  /// Builds the zeroed skeleton for \p M and the recording plans. Call
  /// once per compiled module, after optimization (the profile describes
  /// the residual checks).
  void attach(const Module &M);
  bool attached() const { return Attached; }

  /// Index into functions() for \p F; NoFunction when \p F is not part of
  /// the attached module. The interpreter caches this per frame.
  size_t functionIndex(const Function *F) const;

  /// Index into functions()[FnIdx].Sites of the check at (\p B,
  /// \p Index); -1 when no site was attached there.
  int32_t siteIndex(size_t FnIdx, BlockID B, uint32_t Index) const;

  /// Index into functions()[FnIdx].Arrays of array symbol \p Array; -1
  /// for a symbol that is not an array.
  int32_t arrayIndex(size_t FnIdx, SymbolID Array) const {
    return Plans[FnIdx].ArrayIndex[Array];
  }

  /// A fresh per-frame loop state for function \p FnIdx.
  ProfileFrameState makeFrameState(size_t FnIdx) const;

  /// Records one execution of block \p B: bumps its frequency and updates
  /// the loop state (preheader resets, body entries count iterations,
  /// exits close the current entry into the trip histogram).
  void enterBlock(size_t FnIdx, BlockID B, ProfileFrameState &FS);

  /// Records one execution of the check at (\p B, \p Index); \p Trapped
  /// when the check failed and the run is about to abort.
  void noteCheck(size_t FnIdx, BlockID B, uint32_t Index, bool Trapped);

  /// Records one array access (Load or Store) of array symbol \p Array.
  void noteAccess(size_t FnIdx, SymbolID Array, bool IsStore);

  /// Closes a call frame: every loop entry still open (the frame died
  /// inside the loop — a trap, fault, or in-loop return) records its
  /// partial trip count and counts as a partial entry.
  void flushFrame(size_t FnIdx, ProfileFrameState &FS);

  /// Records one finished module run and its outcome.
  void noteRun(bool Trapped);

  const std::vector<FunctionProfile> &functions() const { return Funcs; }

  /// Whole-profile totals.
  uint64_t runs() const { return Runs; }
  uint64_t trappedRuns() const { return TrappedRuns; }
  uint64_t dynChecks() const;     ///< sum of site hits
  uint64_t dynTraps() const;      ///< sum of site trap counts
  uint64_t arrayAccesses() const; ///< sum of array loads + stores
  uint64_t residualSites() const; ///< static residual check sites
  /// The paper's density characteristic: dynamic checks per dynamic array
  /// access (0 when no access executed).
  double checksPerAccess() const;

  /// Accumulates \p O into this profile with saturating adds. Both
  /// profiles must describe the same module shape; returns false (and
  /// leaves this profile unchanged) on a structural mismatch.
  bool merge(const ExecutionProfile &O);

  /// The "profile" JSON value: totals plus the per-function structure, in
  /// deterministic (module, block id, site, loop) order.
  void writeJson(JsonWriter &W) const;
  std::string toJson() const;

  /// A complete standalone envelope:
  /// {"schemaVersion":..,"profileVersion":..,"profile":{...}}.
  std::string toEnvelopeJson() const;

private:
  /// Recording plan of one function, derived from the IR at attach time.
  struct Plan {
    /// Loop indices by role, per block: a block can close one loop's
    /// entry, open another's, and start a body all at once — exits are
    /// applied first, then preheaders, then body entries.
    struct Roles {
      std::vector<uint32_t> ExitOf;
      std::vector<uint32_t> PreheaderOf;
      std::vector<uint32_t> BodyOf;
    };
    std::vector<Roles> ByBlock;               ///< by BlockID
    std::vector<std::vector<int32_t>> SiteAt; ///< block -> instr -> site
    std::vector<int32_t> ArrayIndex;          ///< SymbolID -> array index
  };

  void closeLoopEntry(FunctionProfile &FP, uint32_t L, ProfileFrameState &FS,
                      bool Partial);

  bool Attached = false;
  uint64_t Runs = 0;
  uint64_t TrappedRuns = 0;
  std::vector<FunctionProfile> Funcs;
  std::vector<Plan> Plans;
  std::map<const Function *, size_t> FuncIndex;
};

/// Schema validation of a profile document: an object carrying numeric
/// "schemaVersion" (== BenchSchemaVersion) and "profileVersion"
/// (== ProfileVersion) plus either a single "profile" object (mfc / sweep
/// run envelopes) or a "programs" array of per-program scheme comparisons
/// (the profdiff report). json_check dispatches here for any document
/// with a "profileVersion" member.
bool validateProfileDocument(const JsonValue &Doc, std::string *Err);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_PROFILE_H

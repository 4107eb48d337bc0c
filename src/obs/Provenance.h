//===----------------------------------------------------------------------===//
///
/// \file
/// Check-lifecycle provenance: a structured, replayable record of every
/// decision the pipeline makes about every range check, keyed by the
/// check's stable CheckTag (ir/Instruction.h). It is the only per-decision
/// record the optimizer passes write: the remark stream (obs/Remarks.h) is
/// a filtered view of these events, and it answers "what did pass P decide
/// here" where provenance answers "what happened to *this* check, end to
/// end":
///
///   Inserted      the check was materialised (Lowering, LazyCodeMotion,
///                 PreheaderInsertion)
///   Strengthened  the payload was replaced in place by a stronger or
///                 rewritten form (CheckStrengthening, INXSynthesis)
///   Moved         the check changed blocks keeping its identity
///                 (PreheaderInsertion re-hoisting)
///   SubsumedBy    deleted because an as-strong check covers it; carries
///                 the witness tag and the justifying implication edge
///                 when determinable (Elimination, PreheaderInsertion
///                 merge)
///   Eliminated    deleted by a static proof (constant folding, interval
///                 analysis), with the proving reason
///   Trapped       proved to always fail; replaced by a Trap that keeps
///                 the tag
///   Residualized  survived the whole pipeline; the interpreter's dynamic
///                 per-site counts attach to this state
///
/// The last event of every check is terminal (SubsumedBy / Eliminated /
/// Trapped / Residualized); tests enforce it for all nine placement
/// schemes. The record is always on: every event is a compact,
/// string-free record (pass enum, block id, justification id, indices
/// into a per-recorder table of check-payload snapshots), and the strings
/// of the JSON/DOT/explain/remark views are rendered only when a view is
/// built, from the function the event names. That is sound because the IR
/// never deletes blocks and symbol tables only grow. OptimizerStats and
/// the opt.* decision counters are counts over these events (see
/// optimizeFunction), so there is no second per-decision tally.
///
/// Events carry no timestamps and are recorded in deterministic pass
/// order, so the serialised form is byte-identical across repeated runs
/// and across BatchCompiler job counts.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_PROVENANCE_H
#define NASCENT_OBS_PROVENANCE_H

#include "ir/CheckExpr.h"
#include "ir/Instruction.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace nascent {

class Function;
class Module;

namespace obs {

class JsonWriter;
struct JsonValue;

/// What happened to a check at one point of its lifecycle. The last four
/// kinds are the terminal ones.
enum class LifecycleKind : uint8_t {
  Inserted,
  Strengthened,
  Moved,
  SubsumedBy,
  Eliminated,
  Trapped,
  Residualized,
};

const char *lifecycleKindName(LifecycleKind K);

/// True for the four states a lifecycle may end in.
inline bool isTerminalLifecycleKind(LifecycleKind K) {
  return K >= LifecycleKind::SubsumedBy;
}

/// The pass (or pipeline step) that recorded an event. Unreachable is the
/// pseudo-pass closing checks swept away when a compile-time trap
/// truncates their block; Pipeline records the terminal Residualized
/// events.
enum class LifecyclePass : uint8_t {
  Lowering,
  INXSynthesis,
  CheckStrengthening,
  LazyCodeMotion,
  PreheaderInsertion,
  Elimination,
  IntervalAnalysis,
  Unreachable,
  Pipeline,
};

const char *lifecyclePassName(LifecyclePass P);

/// Every justification id with its fixed text. Ids may share a text and
/// differ only in what they let the optimizer count (INX's linear vs
/// invariant rewrites); BoundTightened's text follows the pre- and
/// post-rewrite bounds when rendered.
#define NASCENT_INX_TEXT                                                       \
  "range expression rewritten into induction-expression (INX) form over "     \
  "the loop's basic variable and entry snapshots"
#define NASCENT_LCM_TEXT(Point, Where)                                         \
  "strongest family member placed at the " Point " point (" Where            \
  "); later occurrences become redundant"
#define NASCENT_JUSTIFICATIONS(X)                                              \
  X(None, "")                                                                  \
  X(NaiveCheck, "naive range check for the subscript expression")             \
  X(InxRewriteLinear, NASCENT_INX_TEXT)                                        \
  X(InxRewriteInvariant, NASCENT_INX_TEXT)                                     \
  X(BoundTightened, "; the stronger family member is anticipated here")        \
  X(LcmSafeEarliestAtStart, NASCENT_LCM_TEXT("safe-earliest", "block start"))  \
  X(LcmSafeEarliestBeforeTerminator,                                           \
    NASCENT_LCM_TEXT("safe-earliest", "before terminator"))                    \
  X(LcmLatestAtStart, NASCENT_LCM_TEXT("latest-not-isolated", "block start"))  \
  X(LcmLatestBeforeTerminator,                                                 \
    NASCENT_LCM_TEXT("latest-not-isolated", "before terminator"))              \
  X(HoistedInvariant, "loop-invariant check hoisted to the preheader, "        \
                      "guarded by loop entry")                                 \
  X(HoistedSubstituted, "linear check hoisted via loop-limit substitution, "   \
                        "guarded by loop entry")                               \
  X(RehoistedInvariant, "conditional check re-hoisted from an inner "          \
                        "preheader (guards and check invariant in the outer "  \
                        "loop)")                                               \
  X(RehoistedSubstituted, "conditional check re-hoisted from an inner "        \
                          "preheader with loop-limit re-substitution")         \
  X(RehoistMerged, "merged into an identical conditional check already in "    \
                   "the target preheader")                                     \
  X(AvailableOnAllPaths,                                                       \
    "an as-strong check is available on every path into the block")           \
  X(ImpliedByPreheaderCheck,                                                   \
    "implied by a conditional check hoisted to the loop preheader")            \
  X(CoveredEarlierInBlock,                                                     \
    "covered by an as-strong check earlier in the block")                      \
  X(ConstantPasses, "constant check always passes")                            \
  X(ConstantFails, "constant check always fails; replaced by a trap")          \
  X(GuardConstantFalse,                                                        \
    "conditional check guarded by a constant-false guard can never fire")      \
  X(ConstantCondPasses, "constant conditional check always passes")            \
  X(ConstantCondFails, "conditional check with all guards folded always "      \
                       "fails; replaced by a trap")                            \
  X(IntervalPasses, "value ranges prove the check passes on every execution "  \
                    "reaching it")                                             \
  X(IntervalFails, "value ranges prove the check fails on every execution "    \
                   "reaching it; replaced by a trap")                          \
  X(TruncatedByTrap, "unreachable: a compile-time trap truncated the block")   \
  X(CheckSurvived, "check survived optimization")                              \
  X(CondCheckSurvived, "conditional check survived optimization")

/// Why a decision was made: an index into the one fixed table of
/// justification texts above.
enum class JustificationId : uint8_t {
#define NASCENT_X(Id, Text) Id,
  NASCENT_JUSTIFICATIONS(NASCENT_X)
#undef NASCENT_X
};

/// Index into ProvenanceRecorder's snapshot table; NoSnapshot when absent.
constexpr uint32_t NoSnapshot = ~uint32_t(0);

/// A check payload as of one event: what Inserted, Strengthened and Moved
/// events capture, the only events that change a check's payload. The
/// range-expression terms sit in the recorder's term pool, so taking a
/// snapshot allocates nothing per event.
struct CheckSnapshot {
  uint32_t FirstTerm = 0;
  uint32_t NumTerms = 0;
  int64_t Bound = 0;
  CheckOrigin Origin; ///< source provenance (array, dim, side, loc)
};

/// One lifecycle event of one check.
struct LifecycleEvent {
  uint32_t Seq = 0; ///< recorder-wide sequence number (recording order)
  CheckTag Tag = NoCheckTag;
  LifecycleKind Kind = LifecycleKind::Inserted;
  LifecyclePass Pass = LifecyclePass::Lowering; ///< deciding pass
  JustificationId Justification = JustificationId::None;
  BlockID Block = InvalidBlock; ///< block holding (or receiving) the check
  const Function *Fn = nullptr; ///< enclosing function
  /// SubsumedBy: the covering check's tag (0 when the cover is a merge
  /// over all incoming paths and no single witness exists).
  CheckTag OtherTag = NoCheckTag;
  /// Snapshot of the check's payload *after* the event.
  uint32_t Check = NoSnapshot;
  /// The justifying edge: the witness check for an in-block subsumption,
  /// the pre-rewrite check for Strengthened and Moved.
  uint32_t Edge = NoSnapshot;
};

/// Collects lifecycle events for one compilation.
class ProvenanceRecorder {
public:
  /// Records \p Kind for the check instruction \p I, which sits in (or
  /// is about to enter) block \p B of \p F. Inserted, Strengthened and
  /// Moved events snapshot I's payload; Strengthened and Moved take the
  /// tag's previous snapshot as their edge, and a CoveredEarlierInBlock
  /// subsumption takes the witness \p Other's current one.
  void record(LifecycleKind Kind, LifecyclePass Pass, const Function &F,
              BlockID B, const Instruction &I, JustificationId Why,
              CheckTag Other = NoCheckTag);

  /// Appends \p E verbatim, assigning its sequence number.
  void record(LifecycleEvent E);

  /// Makes room for \p Events more events, \p NewSnapshots more snapshots
  /// holding \p Terms more terms, and tags up to \p MaxTag, so recording
  /// that much regrows no table.
  void reserve(size_t Events, size_t NewSnapshots, size_t Terms,
               CheckTag MaxTag);

  const std::vector<LifecycleEvent> &events() const { return All; }
  const std::vector<CheckSnapshot> &snapshots() const { return Snapshots; }

  /// Number of events of \p K (emitted by \p Pass, when given).
  size_t count(LifecycleKind K,
               std::optional<LifecyclePass> Pass = std::nullopt) const;

  /// Event indices grouped per tag, tags in first-appearance (i.e.
  /// insertion) order; one pass over the stream.
  std::vector<std::vector<size_t>> timelines() const;

  /// The last (terminal, once the pipeline finished) event of \p Tag;
  /// null when the tag was never recorded.
  const LifecycleEvent *lastEventOf(CheckTag Tag) const;

  /// Event indices of \p Tag's lifecycle, in order.
  std::vector<size_t> timelineOf(CheckTag Tag) const;

  /// Rendered views of one event's fields (empty when absent).
  std::string functionName(const LifecycleEvent &E) const;
  std::string blockName(const LifecycleEvent &E) const;
  std::string checkStr(const LifecycleEvent &E) const;
  /// The check's family range-expression, e.g. "i - n".
  std::string familyStr(const LifecycleEvent &E) const;
  std::string edgeStr(const LifecycleEvent &E) const;
  std::string justificationText(const LifecycleEvent &E) const;
  int64_t bound(const LifecycleEvent &E) const;
  const CheckOrigin &origin(const LifecycleEvent &E) const;

  /// The full provenance object: {"events": [...], "checks": [...]} where
  /// "checks" groups event indices per tag with the terminal state.
  void writeJson(JsonWriter &W) const;
  std::string toJson() const;

  /// DOT rendering of the subsumption/justification graph: one node per
  /// check (tag, final form, terminal state), one edge per witnessed
  /// subsumption, labelled with the deciding pass.
  std::string toDot() const;

  /// Human-readable decision chains for every check whose origin matches
  /// \p Line (and \p Column, when non-zero). Empty when no check at that
  /// site was recorded.
  std::string explainSite(unsigned Line, unsigned Column = 0) const;

  /// The decision chain of one check by lifecycle tag (the form profdiff
  /// reports hot sites in; `mfc -explain=tag:<N>` queries it directly).
  /// Empty when \p Tag was never recorded.
  std::string explainTag(CheckTag Tag) const;

  /// Referenced-but-never-recorded tags (dangling OtherTag references)
  /// and non-terminal final states, as diagnostics. Empty means the
  /// record is closed and internally consistent.
  std::vector<std::string> validate() const;

private:
  uint32_t addSnapshot(const Instruction &I);
  /// The check of snapshot \p Index; null when absent.
  std::optional<CheckExpr> payload(uint32_t Index) const;
  std::string explainChain(const std::vector<size_t> &Chain) const;

  std::vector<LifecycleEvent> All;
  std::vector<CheckSnapshot> Snapshots;
  std::vector<std::pair<SymbolID, int64_t>> TermPool;
  /// Each tag's current snapshot, indexed by tag.
  std::vector<uint32_t> CurrentOf;
};

/// Records one Inserted event per tagged range check currently in \p M,
/// attributed to Lowering. The pipeline calls this right after lowering
/// (and optimizer passes record their own insertions as they happen).
/// The tables are sized once up front: room for two events per check
/// (its insertion and its terminal event) and one snapshot each.
void recordInsertedChecks(const Module &M, ProvenanceRecorder &PR);

/// Records the terminal Residualized event for every tagged range check
/// that survived in \p M. The pipeline calls this once optimization (and
/// post-verification) is done.
void recordResidualChecks(const Module &M, ProvenanceRecorder &PR);

/// Schema validation of a provenance envelope document: an object with a
/// numeric "schemaVersion" equal to BenchSchemaVersion and a
/// "provenance" object holding "events"/"checks" arrays whose entries
/// carry the required fields, whose every OtherTag reference resolves to
/// a recorded tag, and whose per-check lifecycles end in a terminal
/// state. json_check dispatches here for provenance documents.
bool validateProvenanceDocument(const JsonValue &Doc, std::string *Err);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_PROVENANCE_H

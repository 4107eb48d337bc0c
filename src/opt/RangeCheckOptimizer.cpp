#include "opt/RangeCheckOptimizer.h"

#include "cache/ArtifactCache.h"
#include "obs/Json.h"
#include "obs/Remarks.h"
#include "obs/StatRegistry.h"
#include "opt/CheckContext.h"
#include "opt/CheckStrengthening.h"
#include "opt/Elimination.h"
#include "opt/LazyCodeMotion.h"
#include "opt/IntervalAnalysis.h"
#include "opt/PreheaderInsertion.h"

#include <atomic>
#include <cctype>

using namespace nascent;

NASCENT_STAT(NumFunctionsOptimized, "opt.functions",
             "functions run through the range-check optimizer");

// Per-decision counters, credited once per function by countDecisions from
// the lifecycle events (the passes themselves record only those events).
NASCENT_STAT(NumAvailDeleted, "opt.elim.deleted",
             "checks deleted as redundant by availability");
NASCENT_STAT(NumConstDeleted, "opt.fold.deleted",
             "compile-time-constant checks deleted");
NASCENT_STAT(NumConstTraps, "opt.fold.traps",
             "compile-time-constant checks turned into traps");
NASCENT_STAT(NumStrengthened, "opt.cs.strengthened",
             "checks replaced by a stronger family member");
NASCENT_STAT(NumLcmInserted, "opt.lcm.inserted",
             "checks inserted by lazy-code-motion placement");
NASCENT_STAT(NumCondInserted, "opt.preheader.cond_inserted",
             "conditional checks hoisted into loop preheaders");
NASCENT_STAT(NumRehoisted, "opt.preheader.rehoisted",
             "conditional checks re-hoisted to an outer preheader");
NASCENT_STAT(NumSubstituted, "opt.preheader.substituted",
             "hoisted checks using loop-limit substitution");
NASCENT_STAT(NumIntervalDeleted, "opt.interval.deleted",
             "checks proved redundant by value-range analysis");
NASCENT_STAT(NumIntervalTraps, "opt.interval.traps",
             "checks proved violating by value-range analysis");

bool nascent::parsePlacementScheme(const std::string &Name,
                                   PlacementScheme &Out) {
  std::string Upper = Name;
  for (char &C : Upper)
    C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
  if (Upper == "NI")
    Out = PlacementScheme::NI;
  else if (Upper == "CS")
    Out = PlacementScheme::CS;
  else if (Upper == "LNI")
    Out = PlacementScheme::LNI;
  else if (Upper == "SE")
    Out = PlacementScheme::SE;
  else if (Upper == "LI")
    Out = PlacementScheme::LI;
  else if (Upper == "LLS")
    Out = PlacementScheme::LLS;
  else if (Upper == "ALL")
    Out = PlacementScheme::ALL;
  else if (Upper == "MCM")
    Out = PlacementScheme::MCM;
  else if (Upper == "AI")
    Out = PlacementScheme::AI;
  else
    return false;
  return true;
}

const char *nascent::placementSchemeNames() {
  return "NI, CS, LNI, SE, LI, LLS, ALL, MCM, AI";
}

const char *nascent::placementSchemeName(PlacementScheme S) {
  switch (S) {
  case PlacementScheme::NI:
    return "NI";
  case PlacementScheme::CS:
    return "CS";
  case PlacementScheme::LNI:
    return "LNI";
  case PlacementScheme::SE:
    return "SE";
  case PlacementScheme::LI:
    return "LI";
  case PlacementScheme::LLS:
    return "LLS";
  case PlacementScheme::ALL:
    return "ALL";
  case PlacementScheme::MCM:
    return "MCM";
  case PlacementScheme::AI:
    return "AI";
  }
  return "?";
}

// Pin the struct layout to the X-macro: a new field changes the size and
// fails this assert until NASCENT_OPTIMIZER_STATS_FIELDS is extended.
static_assert(sizeof(OptimizerStats) ==
                  10 * sizeof(unsigned) + 2 * sizeof(size_t),
              "OptimizerStats and NASCENT_OPTIMIZER_STATS_FIELDS are out of "
              "sync: extend the field list when adding a field");

OptimizerStats &OptimizerStats::operator+=(const OptimizerStats &R) {
#define NASCENT_X(F) F += R.F;
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X
  return *this;
}

void OptimizerStats::print(std::ostream &OS) const {
#define NASCENT_X(F) OS << #F << ": " << F << "\n";
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X
}

void OptimizerStats::writeJson(obs::JsonWriter &W) const {
  W.beginObject();
#define NASCENT_X(F) W.kv(#F, static_cast<uint64_t>(F));
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X
  W.endObject();
}

std::string OptimizerStats::toJson() const {
  obs::JsonWriter W;
  writeJson(W);
  return W.take();
}

namespace {

/// The opt.scheme.<NAME> counter of \p S, interned on the scheme's first
/// use (so the registry lists only the schemes that ran) and looked up by
/// name only then.
obs::Counter &schemeCounter(PlacementScheme S) {
  static std::atomic<obs::Counter *> Counters[size_t(PlacementScheme::AI) + 1];
  std::atomic<obs::Counter *> &Slot = Counters[size_t(S)];
  obs::Counter *C = Slot.load(std::memory_order_acquire);
  if (!C) {
    C = &obs::StatRegistry::global().counter(
        std::string("opt.scheme.") + placementSchemeName(S),
        "functions optimized with this placement scheme");
    Slot.store(C, std::memory_order_release);
  }
  return *C;
}

unsigned countStaticChecks(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F)
    for (const Instruction &I : BB->instructions())
      if (I.isRangeCheck())
        ++N;
  return N;
}

/// Builds the CheckContexts (and loop forests) a scheme needs, consulting
/// the artifact cache when it can: the function content key is known, no
/// preheader facts are requested, and no insertion stage has mutated the
/// IR since the key was computed. Every such mutation is a recorded
/// decision, so the IR is unchanged while the recorder holds no event
/// past FirstEvent. Cached and organic builds are telemetry-identical (see
/// the seeded CheckContext constructor), so the factory is free to pick
/// either.
struct CtxFactory {
  Function &F;
  const RangeCheckOptions &Opts;
  obs::PhaseTimings *PT;
  /// Content key of F's post-critical-edge-split IR; zero disables reuse.
  support::Hash128 FnKey;
  const obs::ProvenanceRecorder &PR;
  size_t FirstEvent;

  bool cacheUsable() const {
    return Opts.Cache && !FnKey.isZero() && PR.events().size() == FirstEvent;
  }

  std::unique_ptr<CheckContext> make(const std::vector<PreheaderFact> &Facts) {
    if (!cacheUsable() || !Facts.empty())
      return std::make_unique<CheckContext>(F, Opts.Implications, Facts, PT);
    support::Hash128 Key =
        support::mixHash(FnKey, static_cast<uint64_t>(Opts.Implications));
    if (auto Seed = Opts.Cache->findContextSeed(Key))
      return std::make_unique<CheckContext>(F, Opts.Implications, *Seed, PT);
    auto Ctx = std::make_unique<CheckContext>(
        F, Opts.Implications, std::vector<PreheaderFact>{}, PT);
    Opts.Cache->storeContextSeed(Key, Ctx->makeSeed());
    return Ctx;
  }

  /// A loop forest for F's current IR, shared through the cache when
  /// possible. \p Hold keeps the shared entry alive across the pass that
  /// uses it; returns null when the caller should let the pass build its
  /// own (cache off or IR already mutated).
  const LoopInfo *loops(std::shared_ptr<const cache::LoopArtifacts> &Hold) {
    if (!cacheUsable())
      return nullptr;
    Hold = Opts.Cache->findLoopArtifacts(FnKey);
    if (!Hold)
      Hold = Opts.Cache->storeLoopArtifacts(
          FnKey, std::make_shared<const cache::LoopArtifacts>(F));
    return &Hold->LI;
  }
};

/// The OptimizerStats field counting decisions of remark kind \p K; null
/// for Residual, which is no decision.
unsigned *decisionField(OptimizerStats &S, obs::RemarkKind K) {
  switch (K) {
  case obs::RemarkKind::Eliminated:
    return &S.ChecksDeleted;
  case obs::RemarkKind::Strengthened:
    return &S.ChecksStrengthened;
  case obs::RemarkKind::LcmInserted:
    return &S.ChecksInserted;
  case obs::RemarkKind::CondInserted:
    return &S.CondChecksInserted;
  case obs::RemarkKind::Rehoisted:
    return &S.Rehoisted;
  case obs::RemarkKind::CompileTimeDeleted:
    return &S.CompileTimeDeleted;
  case obs::RemarkKind::CompileTimeTrap:
    return &S.CompileTimeTraps;
  case obs::RemarkKind::IntervalEliminated:
    return &S.IntervalDeleted;
  case obs::RemarkKind::Residual:
    return nullptr;
  }
  return nullptr;
}

/// Derives the decision fields of \p Stats from the events \p PR
/// recorded since index \p First, and credits the opt.* decision counters
/// from the same counts.
void countDecisions(const obs::ProvenanceRecorder &PR, size_t First,
                    OptimizerStats &Stats) {
  unsigned IntervalTraps = 0, Substituted = 0;
  for (size_t I = First; I != PR.events().size(); ++I) {
    const obs::LifecycleEvent &E = PR.events()[I];
    if (std::optional<obs::RemarkKind> K = obs::remarkKindFor(E))
      if (unsigned *Field = decisionField(Stats, *K))
        ++*Field;
    if (E.Kind == obs::LifecycleKind::Trapped &&
        E.Pass == obs::LifecyclePass::IntervalAnalysis)
      ++IntervalTraps;
    if (E.Justification == obs::JustificationId::HoistedSubstituted ||
        E.Justification == obs::JustificationId::RehoistedSubstituted)
      ++Substituted;
  }
  NumAvailDeleted += Stats.ChecksDeleted;
  NumConstDeleted += Stats.CompileTimeDeleted;
  NumConstTraps += Stats.CompileTimeTraps - IntervalTraps;
  NumStrengthened += Stats.ChecksStrengthened;
  NumLcmInserted += Stats.ChecksInserted;
  NumCondInserted += Stats.CondChecksInserted;
  NumRehoisted += Stats.Rehoisted;
  NumSubstituted += Substituted;
  NumIntervalDeleted += Stats.IntervalDeleted;
  NumIntervalTraps += IntervalTraps;
}

} // namespace

OptimizerStats nascent::optimizeFunction(Function &F,
                                         const RangeCheckOptions &Opts,
                                         DiagnosticEngine &Diags) {
  OptimizerStats Stats;
  Stats.ChecksBefore = countStaticChecks(F);
  ++NumFunctionsOptimized;
  schemeCounter(Opts.Scheme).inc();

  obs::PhaseTimings *PT = Opts.Phases;
  obs::ProvenanceRecorder Local;
  obs::ProvenanceRecorder &PR = Opts.Provenance ? *Opts.Provenance : Local;
  const size_t FirstEvent = PR.events().size();
  obs::ScopedPhase FnScope(PT, "fn " + F.name());

  // PRE-style insertion works on edges: normalise the CFG first.
  F.splitCriticalEdges();

  // The function content key is computed on the normalised IR, once per
  // (module snapshot, function) — the cache memoises it — and names every
  // analysis artifact below until an insertion stage mutates the IR.
  CtxFactory Contexts{F, Opts, PT,
                      Opts.Cache && !Opts.ModuleKey.isZero()
                          ? Opts.Cache->functionKey(Opts.ModuleKey, F)
                          : support::Hash128{},
                      PR, FirstEvent};
  std::shared_ptr<const cache::LoopArtifacts> LoopsHold;

  std::vector<PreheaderFact> Facts;

  // Step 1-3: build the universe/CIG and insert checks per scheme.
  switch (Opts.Scheme) {
  case PlacementScheme::NI:
    break;
  case PlacementScheme::CS: {
    auto Ctx = Contexts.make({});
    Stats.UniverseSize = Ctx->universe().size();
    Stats.NumFamilies = Ctx->universe().numFamilies();
    obs::ScopedPhase Scope(PT, "strengthen");
    runCheckStrengthening(F, *Ctx, PR);
    break;
  }
  case PlacementScheme::SE:
  case PlacementScheme::LNI: {
    auto Ctx = Contexts.make({});
    Stats.UniverseSize = Ctx->universe().size();
    Stats.NumFamilies = Ctx->universe().numFamilies();
    obs::ScopedPhase Scope(PT, "lcm-place");
    runLazyCodeMotion(F, *Ctx,
                      Opts.Scheme == PlacementScheme::SE
                          ? LCMPlacement::SafeEarliest
                          : LCMPlacement::LatestNotIsolated,
                      PR);
    break;
  }
  case PlacementScheme::LI:
  case PlacementScheme::LLS:
  case PlacementScheme::MCM: {
    auto Ctx = Contexts.make({});
    const LoopInfo *CachedLoops = Contexts.loops(LoopsHold);
    Stats.UniverseSize = Ctx->universe().size();
    Stats.NumFamilies = Ctx->universe().numFamilies();
    PreheaderOptions PO;
    PO.EnableLLS = Opts.Scheme != PlacementScheme::LI;
    PO.MarksteinRestriction = Opts.Scheme == PlacementScheme::MCM;
    obs::ScopedPhase Scope(PT, "preheader-insert");
    runPreheaderInsertion(F, *Ctx, PO, Facts, PR, CachedLoops);
    break;
  }
  case PlacementScheme::AI: {
    const LoopInfo *CachedLoops = Contexts.loops(LoopsHold);
    obs::ScopedPhase Scope(PT, "interval-analysis");
    eliminateChecksByIntervals(F, Diags, PR, CachedLoops);
    break;
  }
  case PlacementScheme::ALL: {
    {
      auto Ctx = Contexts.make({});
      const LoopInfo *CachedLoops = Contexts.loops(LoopsHold);
      Stats.UniverseSize = Ctx->universe().size();
      Stats.NumFamilies = Ctx->universe().numFamilies();
      PreheaderOptions PO;
      obs::ScopedPhase Scope(PT, "preheader-insert");
      runPreheaderInsertion(F, *Ctx, PO, Facts, PR, CachedLoops);
    }
    {
      // Safe-earliest over the LLS result; the fresh context carries the
      // preheader facts so LCM sees the hoisted availability.
      auto Ctx = Contexts.make(Facts);
      obs::ScopedPhase Scope(PT, "lcm-place");
      runLazyCodeMotion(F, *Ctx, LCMPlacement::SafeEarliest, PR);
    }
    break;
  }
  }

  // Step 4: availability-based elimination on the post-insertion IR. The
  // universe statistics reported are those of this final context (for NI
  // no earlier context exists). The AI extension skips this on purpose:
  // the abstract-interpretation school it models performs no insertion
  // and no redundancy elimination (paper section 5).
  if (Opts.Scheme != PlacementScheme::AI) {
    auto Ctx = Contexts.make(Facts);
    Stats.UniverseSize = Ctx->universe().size();
    Stats.NumFamilies = Ctx->universe().numFamilies();
    obs::ScopedPhase Scope(PT, "eliminate");
    eliminateRedundantChecks(F, *Ctx, PR);
  }

  // Step 5: compile-time checks.
  {
    obs::ScopedPhase Scope(PT, "fold-consts");
    foldCompileTimeChecks(F, Diags, PR);
    F.recomputePreds();
  }

  Stats.ChecksAfter = countStaticChecks(F);
  countDecisions(PR, FirstEvent, Stats);
  return Stats;
}

OptimizerStats nascent::optimizeModule(Module &M,
                                       const RangeCheckOptions &Opts,
                                       DiagnosticEngine &Diags) {
  OptimizerStats Total;
  for (Function *F : M.functions())
    Total += optimizeFunction(*F, Opts, Diags);
  return Total;
}

std::vector<std::string>
nascent::reconcileCheckProvenance(const obs::ProvenanceRecorder &PR,
                                  const OptimizerStats &Stats) {
  std::vector<std::string> Problems = PR.validate();
  size_t Residual = PR.count(obs::LifecycleKind::Residualized);
  if (Residual != Stats.ChecksAfter)
    Problems.push_back("residualized events = " + std::to_string(Residual) +
                       " but OptimizerStats.ChecksAfter = " +
                       std::to_string(Stats.ChecksAfter));
  return Problems;
}

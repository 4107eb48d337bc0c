#include "opt/RangeCheckOptimizer.h"

#include "cache/ArtifactCache.h"
#include "obs/Json.h"
#include "obs/StatRegistry.h"
#include "opt/CheckContext.h"
#include "opt/CheckStrengthening.h"
#include "opt/Elimination.h"
#include "opt/LazyCodeMotion.h"
#include "opt/IntervalAnalysis.h"
#include "opt/PreheaderInsertion.h"

#include <cctype>

using namespace nascent;

NASCENT_STAT(NumFunctionsOptimized, "opt.functions",
             "functions run through the range-check optimizer");

// Per-decision counters, credited once per function from the stage stats
// below (the passes themselves record only lifecycle events).
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
/// IR since the key was computed. Cached and organic builds are
/// telemetry-identical (see the seeded CheckContext constructor), so the
/// factory is free to pick either.
struct CtxFactory {
  Function &F;
  const RangeCheckOptions &Opts;
  obs::TraceCollector *TC;
  /// Content key of F's post-critical-edge-split IR; zero disables reuse.
  support::Hash128 FnKey;
  /// Set after any stage that may have mutated the IR.
  bool IRDirty = false;

  bool cacheUsable() const {
    return Opts.Cache && !FnKey.isZero() && !IRDirty;
  }

  std::unique_ptr<CheckContext> make(const std::vector<PreheaderFact> &Facts) {
    if (!cacheUsable() || !Facts.empty())
      return std::make_unique<CheckContext>(F, Opts.Implications, Facts, TC);
    support::Hash128 Key =
        support::mixHash(FnKey, static_cast<uint64_t>(Opts.Implications));
    if (auto Seed = Opts.Cache->findContextSeed(Key))
      return std::make_unique<CheckContext>(F, Opts.Implications, *Seed, TC);
    auto Ctx = std::make_unique<CheckContext>(
        F, Opts.Implications, std::vector<PreheaderFact>{}, TC);
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

} // namespace

OptimizerStats nascent::optimizeFunction(Function &F,
                                         const RangeCheckOptions &Opts,
                                         DiagnosticEngine &Diags) {
  OptimizerStats Stats;
  Stats.ChecksBefore = countStaticChecks(F);
  ++NumFunctionsOptimized;
  obs::StatRegistry::global()
      .counter(std::string("opt.scheme.") + placementSchemeName(Opts.Scheme),
               "functions optimized with this placement scheme")
      .inc();

  obs::TraceCollector *TC = Opts.Trace;
  obs::ProvenanceRecorder *PV = Opts.Provenance;
  obs::TraceScope FnScope(TC, "fn " + F.name());

  // PRE-style insertion works on edges: normalise the CFG first.
  F.splitCriticalEdges();

  // The function content key is computed on the normalised IR, once per
  // (module snapshot, function) — the cache memoises it — and names every
  // analysis artifact below until an insertion stage mutates the IR.
  CtxFactory Contexts{F, Opts, TC,
                      Opts.Cache && !Opts.ModuleKey.isZero()
                          ? Opts.Cache->functionKey(Opts.ModuleKey, F)
                          : support::Hash128{},
                      /*IRDirty=*/false};
  std::shared_ptr<const cache::LoopArtifacts> LoopsHold;

  std::vector<PreheaderFact> Facts;
  unsigned Substituted = 0;   // preheader checks using limit substitution
  unsigned IntervalTraps = 0; // AI-scheme share of CompileTimeTraps

  // Step 1-3: build the universe/CIG and insert checks per scheme.
  switch (Opts.Scheme) {
  case PlacementScheme::NI:
    break;
  case PlacementScheme::CS: {
    auto Ctx = Contexts.make({});
    Stats.UniverseSize = Ctx->universe().size();
    Stats.NumFamilies = Ctx->universe().numFamilies();
    obs::TraceScope Scope(TC, "strengthen");
    Stats.ChecksStrengthened =
        runCheckStrengthening(F, *Ctx, PV).ChecksStrengthened;
    // Strengthening rewrites check payloads in place and does nothing
    // else: zero rewrites means the IR is untouched and the elimination
    // context below may still reuse the pre-stage seed.
    if (Stats.ChecksStrengthened)
      Contexts.IRDirty = true;
    break;
  }
  case PlacementScheme::SE:
  case PlacementScheme::LNI: {
    auto Ctx = Contexts.make({});
    Stats.UniverseSize = Ctx->universe().size();
    Stats.NumFamilies = Ctx->universe().numFamilies();
    obs::TraceScope Scope(TC, "lcm-place");
    Stats.ChecksInserted =
        runLazyCodeMotion(F, *Ctx,
                          Opts.Scheme == PlacementScheme::SE
                              ? LCMPlacement::SafeEarliest
                              : LCMPlacement::LatestNotIsolated,
                          PV)
            .ChecksInserted;
    // LCM's only IR mutations are the counted insertions.
    if (Stats.ChecksInserted)
      Contexts.IRDirty = true;
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
    obs::TraceScope Scope(TC, "preheader-insert");
    PreheaderStats PS =
        runPreheaderInsertion(F, *Ctx, PO, Facts, PV, CachedLoops);
    Stats.CondChecksInserted = PS.CondChecksInserted;
    Stats.Rehoisted = PS.Rehoisted;
    Substituted = PS.Substituted;
    // Preheader insertion mutates only through counted insertions and
    // rehoists (it never creates blocks; preheaders already exist after
    // critical-edge splitting), so a zero-work pass keeps the seed valid.
    if (PS.CondChecksInserted || PS.Rehoisted)
      Contexts.IRDirty = true;
    break;
  }
  case PlacementScheme::AI: {
    const LoopInfo *CachedLoops = Contexts.loops(LoopsHold);
    obs::TraceScope Scope(TC, "interval-analysis");
    IntervalStats IS = eliminateChecksByIntervals(F, Diags, PV, CachedLoops);
    Stats.IntervalDeleted = IS.ChecksProvedRedundant;
    IntervalTraps = IS.ChecksProvedViolating;
    Stats.CompileTimeTraps += IntervalTraps;
    if (IS.ChecksProvedRedundant || IS.ChecksProvedViolating)
      Contexts.IRDirty = true;
    break;
  }
  case PlacementScheme::ALL: {
    {
      auto Ctx = Contexts.make({});
      const LoopInfo *CachedLoops = Contexts.loops(LoopsHold);
      Stats.UniverseSize = Ctx->universe().size();
      Stats.NumFamilies = Ctx->universe().numFamilies();
      PreheaderOptions PO;
      obs::TraceScope Scope(TC, "preheader-insert");
      PreheaderStats PS =
          runPreheaderInsertion(F, *Ctx, PO, Facts, PV, CachedLoops);
      Stats.CondChecksInserted = PS.CondChecksInserted;
      Stats.Rehoisted = PS.Rehoisted;
      Substituted = PS.Substituted;
      if (PS.CondChecksInserted || PS.Rehoisted)
        Contexts.IRDirty = true;
    }
    {
      // Safe-earliest over the LLS result; the fresh context carries the
      // preheader facts so LCM sees the hoisted availability.
      auto Ctx = Contexts.make(Facts);
      obs::TraceScope Scope(TC, "lcm-place");
      Stats.ChecksInserted =
          runLazyCodeMotion(F, *Ctx, LCMPlacement::SafeEarliest, PV)
              .ChecksInserted;
      if (Stats.ChecksInserted)
        Contexts.IRDirty = true;
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
    obs::TraceScope Scope(TC, "eliminate");
    EliminationStats ES = eliminateRedundantChecks(F, *Ctx, PV);
    Stats.ChecksDeleted = ES.ChecksDeleted;
  }

  // Step 5: compile-time checks. Accumulate (not assign) the trap count:
  // the AI scheme contributes interval-proved traps above, and lifecycle
  // totals must reconcile with the stats.
  {
    obs::TraceScope Scope(TC, "fold-consts");
    EliminationStats ES = foldCompileTimeChecks(F, Diags, PV);
    Stats.CompileTimeDeleted = ES.CompileTimeDeleted;
    Stats.CompileTimeTraps += ES.CompileTimeTraps;
    F.recomputePreds();
  }

  Stats.ChecksAfter = countStaticChecks(F);

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
  using obs::LifecycleKind;
  std::vector<std::string> Problems = PR.validate();

  auto Expect = [&](LifecycleKind K, const char *Pass, size_t Want,
                    const char *StatName) {
    size_t Got = PR.count(K, Pass ? Pass : "");
    if (Got != Want)
      Problems.push_back(
          std::string(obs::lifecycleKindName(K)) + "(" +
          (Pass ? Pass : "any pass") + ") events = " + std::to_string(Got) +
          " but OptimizerStats." + StatName + " = " + std::to_string(Want));
  };

  Expect(LifecycleKind::Inserted, "LazyCodeMotion", Stats.ChecksInserted,
         "ChecksInserted");
  Expect(LifecycleKind::Inserted, "PreheaderInsertion",
         Stats.CondChecksInserted, "CondChecksInserted");
  Expect(LifecycleKind::Moved, "PreheaderInsertion", Stats.Rehoisted,
         "Rehoisted");
  Expect(LifecycleKind::Strengthened, "CheckStrengthening",
         Stats.ChecksStrengthened, "ChecksStrengthened");
  Expect(LifecycleKind::SubsumedBy, "Elimination", Stats.ChecksDeleted,
         "ChecksDeleted");
  Expect(LifecycleKind::Eliminated, "Elimination", Stats.CompileTimeDeleted,
         "CompileTimeDeleted");
  Expect(LifecycleKind::Eliminated, "IntervalAnalysis",
         Stats.IntervalDeleted, "IntervalDeleted");
  Expect(LifecycleKind::Trapped, nullptr, Stats.CompileTimeTraps,
         "CompileTimeTraps");
  Expect(LifecycleKind::Residualized, nullptr, Stats.ChecksAfter,
         "ChecksAfter");
  return Problems;
}

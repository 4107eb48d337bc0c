//===----------------------------------------------------------------------===//
///
/// \file
/// Shared analysis context for the range-check optimizer: the check
/// universe of one function, the implication graph, per-instruction check
/// ids, kill/gen transfer functions, and the availability /
/// anticipatability data-flow problems (paper section 3.2).
///
/// Conditional checks hoisted into preheaders contribute *entry facts*
/// (PreheaderFact): the guarded check is recorded as available at the
/// entry of the loop's body block — the flow-sensitive, sound realisation
/// of the paper's preheader-to-body implications (see DESIGN.md §5.3).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_CHECKCONTEXT_H
#define NASCENT_OPT_CHECKCONTEXT_H

#include "analysis/Dataflow.h"
#include "cache/ArtifactCache.h"
#include "checks/CheckImplicationGraph.h"
#include "checks/CheckUniverse.h"
#include "ir/Function.h"
#include "obs/Trace.h"

#include <memory>
#include <vector>

namespace nascent {

/// A fact established by a conditional check in a loop preheader: at the
/// entry of BodyEntry, Fact has always been performed. Source is the
/// lifecycle tag of the conditional check that established the fact, so
/// eliminations justified by it can cite their witness.
struct PreheaderFact {
  BlockID BodyEntry = InvalidBlock;
  CheckExpr Fact;
  CheckTag Source = NoCheckTag;
};

/// Per-function analysis context over the current IR. Invalidated by any
/// IR mutation; the optimizer rebuilds it between its insertion and
/// elimination stages.
class CheckContext {
public:
  /// Builds the universe, CIG, and block transfer sets for the current IR
  /// of \p F. When \p Phases is given, the build and each data-flow
  /// solve append a nested entry to it.
  CheckContext(const Function &F, ImplicationMode Mode,
               const std::vector<PreheaderFact> &Facts = {},
               obs::PhaseTimings *Phases = nullptr);

  /// Rebuilds a context from a cached seed (docs/caching.md): binds the
  /// seed's shared universe and table core instead of walking the IR,
  /// rebinds the implication graph to the shared universe, and replays
  /// the stat and work-proxy effects of the organic build so telemetry
  /// is byte-identical either way. Only valid for \p F content-identical
  /// to the function the seed was built from, at the same mode, with no
  /// preheader facts.
  CheckContext(const Function &F, ImplicationMode Mode,
               const cache::ContextSeed &Seed,
               obs::PhaseTimings *Phases = nullptr);

  /// Snapshot of the built state for the artifact cache; the shared core
  /// is immutable from here on.
  cache::ContextSeed makeSeed() const;

  /// Word-parallel bit-vector ops the construction spent (or replayed).
  uint64_t buildWordOps() const { return BuildWordOps; }

  const Function &function() const { return F; }
  const CheckUniverse &universe() const { return U; }
  CheckImplicationGraph &cig() { return CIG; }
  const CheckImplicationGraph &cig() const { return CIG; }
  ImplicationMode mode() const { return Mode; }

  /// CheckID of the plain Check instruction at (B, Idx); InvalidCheck for
  /// every other instruction (including CondCheck) and for instructions
  /// inserted after this context was built.
  CheckID idOf(BlockID B, size_t Idx) const {
    if (size_t(B) + 1 >= Core.InstBase.size() ||
        Idx >= Core.InstBase[B + 1] - Core.InstBase[B])
      return InvalidCheck;
    return Core.InstCheck[Core.InstBase[B] + Idx];
  }

  /// A representative origin for diagnostics on inserted copies of \p C.
  const CheckOrigin &representativeOrigin(CheckID C) const {
    return Core.RepOrigin[C];
  }

  /// Entry facts per block (universe-sized rows).
  ConstBitRow genInBits(BlockID B) const { return Core.GenIn[B]; }

  /// The lifecycle tag of a preheader conditional check whose fact covers
  /// \p C at the entry of \p B; NoCheckTag when no fact does (or the
  /// covering fact carries no tag). Provenance uses this to name the
  /// witness of fact-justified eliminations.
  CheckTag preheaderWitness(BlockID B, CheckID C) const;

  /// Clears from \p Bits every check killed by \p I (a definition of any
  /// symbol in the range-expression kills the check).
  void applyKill(const Instruction &I, DenseBitVector &Bits) const;

  /// Applies the availability gen of \p I: a performed check generates
  /// itself and every weaker check (via the CIG, honouring the mode).
  void applyAvailGen(BlockID B, size_t Idx, const Instruction &I,
                     DenseBitVector &Bits) const;

  /// Applies the anticipatability gen of \p I: a check generates itself
  /// and the weaker checks of its own family only (the paper's stronger
  /// branch-side condition).
  void applyAnticGen(BlockID B, size_t Idx, const Instruction &I,
                     DenseBitVector &Bits) const;

  /// Availability: forward, intersect. In/Out per block; remember that a
  /// block's effective entry set is In | genInBits.
  DataflowResult solveAvailability() const;

  /// Anticipatability: backward, intersect. In = block entry, Out = exit.
  DataflowResult solveAnticipatability() const;

  /// The weaker-closure of \p C (availability flavour): every check \p C
  /// is as strong as, itself included. Built for every check with the
  /// context (see buildClosures), so a query is a row lookup.
  ConstBitRow weakerClosure(CheckID C) const { return Core.Closure[C]; }

  /// The weaker-closure restricted to \p C's family (antic flavour).
  ConstBitRow weakerClosureSameFamily(CheckID C) const {
    return Core.FamClosure[C];
  }

  /// Per-block kill sets (union over instructions).
  ConstBitRow blockKill(BlockID B) const { return Core.Kill[B]; }

  /// Per-block local anticipatability (LCM's ANTLOC): checks generated in
  /// the block with no kill before them.
  ConstBitRow blockAnticGen(BlockID B) const { return anticGen()[B]; }

  /// True when block \p B contains a plain check generating \p C's
  /// availability before any kill of \p C (LCM's "locally anticipatable").
  bool locallyAnticipates(BlockID B, CheckID C) const;

private:
  void buildUniverse(const std::vector<PreheaderFact> &Facts);
  void buildClosures();
  void buildBlockSets();

  /// The anticipatability gen rows, built on first use. Organic contexts
  /// build them then (and count the word ops there); a seeded context, or
  /// an organic one whose rows makeSeed built ahead of need, credits the
  /// build's word ops on its first read instead, so telemetry matches an
  /// organic build that read them at the same point.
  const BitRows &anticGen() const;
  void buildAnticGen() const;

  /// The stat epilogue shared by the organic and seeded constructors, so
  /// both record identical counter and histogram updates.
  void recordBuildStats();

  const Function &F;
  ImplicationMode Mode;
  obs::PhaseTimings *Phases = nullptr;
  /// Seeded contexts share the (immutable) universe of the build that
  /// produced their seed instead of copying its intern maps; organic
  /// builds intern into their own. U is the one in use everywhere.
  std::shared_ptr<const CheckUniverse> SharedU;
  CheckUniverse OwnedU;
  const CheckUniverse &U;
  /// The built tables (ids, origins, transfer sets, closures, order):
  /// organic contexts allocate and fill OwnedCore (the write handle);
  /// seeded contexts bind SharedCore from their seed. Core is the one in
  /// use everywhere. makeSeed shares the core, after which it is
  /// immutable.
  std::shared_ptr<cache::ContextCore> OwnedCore;
  std::shared_ptr<const cache::ContextCore> SharedCore;
  const cache::ContextCore &Core;
  CheckImplicationGraph CIG;

  /// (body entry, interned fact, source tag) per preheader fact, kept for
  /// witness lookups.
  struct FactInfo {
    BlockID Block;
    CheckID Id;
    CheckTag Source;
  };
  std::vector<FactInfo> StoredFacts;

  /// Word-parallel bit-vector ops spent building the universe and block
  /// sets (captured by the organic constructor, replayed by the seeded
  /// one). Excludes the stat epilogue's own counted ops, which the seeded
  /// constructor re-executes rather than replays.
  uint64_t BuildWordOps = 0;

  /// Whether this context has paid (built or credited) the word ops of
  /// the anticipatability gen rows; see anticGen().
  mutable bool AnticGenPaid = false;

  /// Shared write-once memo for the global data-flow solves, threaded
  /// through the seed so every context built from it answers each problem
  /// from the first solve (mutable: makeSeed and the const solve methods
  /// attach/populate it; null outside cached compiles, where the solvers
  /// run organically every time).
  mutable std::shared_ptr<cache::SolveMemo> Solves;
};

} // namespace nascent

#endif // NASCENT_OPT_CHECKCONTEXT_H

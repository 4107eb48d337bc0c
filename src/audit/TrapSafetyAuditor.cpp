#include "audit/TrapSafetyAuditor.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "audit/CigConsistencyLint.h"
#include "opt/CheckContext.h"
#include "opt/IntervalAnalysis.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <unordered_map>

using namespace nascent;

namespace {

bool constTrue(const CheckExpr &C) {
  return C.isCompileTimeConstant() && C.evaluatesToTrue();
}
bool constFalse(const CheckExpr &C) {
  return C.isCompileTimeConstant() && !C.evaluatesToTrue();
}

/// True when some check of \p Bits is as strong as the check with range
/// expression family \p F and bound \p Bound: a member of F up to that
/// bound (a check fails whenever a same-expression check with a larger
/// bound fails). The family's bound order is walked instead of every set
/// bit. The universe must key families by expression (any
/// ImplicationMode but None); InvalidFamily has no members.
bool anyAsStrongAs(const CheckUniverse &U, ConstBitRow Bits,
                   FamilyID F, int64_t Bound) {
  assert(!U.familyPerCheckMode() && "families must be keyed by expression");
  if (F == InvalidFamily)
    return false;
  for (CheckID M : U.familyMembers(F)) {
    if (U.check(M).bound() > Bound)
      return false;
    if (Bits.test(M))
      return true;
  }
  return false;
}

// The helpers below mirror the (file-static) ones in PreheaderInsertion.cpp;
// the auditor re-derives every side condition rather than trusting the
// optimizer's own bookkeeping.

DenseBitVector definedSymbols(const Function &F, const Loop &L) {
  DenseBitVector Out(F.symbols().size());
  for (BlockID B : L.Blocks)
    for (const Instruction &I : F.block(B)->instructions())
      if (I.Dest != InvalidSymbol)
        Out.set(I.Dest);
  return Out;
}

bool exprInvariant(const LinearExpr &E, const DenseBitVector &Defined) {
  for (const auto &[Sym, Coeff] : E.terms()) {
    (void)Coeff;
    if (Sym < Defined.size() && Defined.test(Sym))
      return false;
  }
  return true;
}

bool everyIterationCompletes(const Function &F, const LoopInfo &LI,
                             const Loop &L) {
  for (BlockID B : L.Blocks)
    if (F.block(B)->terminator().Op == Opcode::Ret)
      return false;
  for (const Loop *Sub : LI.loopsInnermostFirst()) {
    if (Sub == &L || !L.contains(Sub->Header))
      continue;
    if (Sub->DoLoopIndex < 0)
      return false; // nested while loop: may not terminate
  }
  return true;
}

/// The visit marks and work list of reachesWithout, reused across calls:
/// a block is seen in the current search when its stamp equals Epoch, so
/// a new search only bumps the epoch.
struct ReachScratch {
  std::vector<uint32_t> SeenAt;
  uint32_t Epoch = 0;
  std::vector<BlockID> Work;
};

/// DFS from \p From that never enters \p Avoid; true when it reaches
/// \p Target or any Ret-terminated block.
bool reachesWithout(const Function &F, BlockID From, BlockID Avoid,
                    BlockID Target, ReachScratch &S) {
  if (From == Avoid)
    return false;
  if (S.SeenAt.size() < F.numBlocks())
    S.SeenAt.resize(F.numBlocks(), 0);
  if (++S.Epoch == 0) {
    std::fill(S.SeenAt.begin(), S.SeenAt.end(), 0);
    S.Epoch = 1;
  }
  S.Work.assign(1, From);
  S.SeenAt[From] = S.Epoch;
  while (!S.Work.empty()) {
    BlockID B = S.Work.back();
    S.Work.pop_back();
    if (B == Target)
      return true;
    if (F.block(B)->terminator().Op == Opcode::Ret)
      return true;
    for (BlockID Succ : F.block(B)->successors()) {
      if (Succ == Avoid || S.SeenAt[Succ] == S.Epoch)
        continue;
      S.SeenAt[Succ] = S.Epoch;
      S.Work.push_back(Succ);
    }
  }
  return false;
}

LinearExpr substituteExtreme(const LinearExpr &Expr, SymbolID Var,
                             int64_t Coeff, const LinearExpr &MinVal,
                             const LinearExpr &MaxVal) {
  LinearExpr Out = Expr;
  Out.substitute(Var, Coeff > 0 ? MaxVal : MinVal);
  return Out;
}

/// Everything the auditor needs to reason about one do-loop: its metadata,
/// natural loop, the symbols defined inside it, and whether every started
/// iteration completes (required for direction-A limit substitution).
struct LoopEnv {
  const DoLoopInfo *DL = nullptr;
  const Loop *L = nullptr;
  DenseBitVector Defined; ///< over the function's symbols
  bool EveryIterCompletes = false;
};

/// "Control at the preheader's end + Req all hold there + J fails there
/// implies the original traps" — the auditor's reconstructed meaning of a
/// guarded preheader check. J and the Req guards are transport-table ids;
/// the guards are ReqSize consecutive entries of the auditor's guard pool.
struct Justification {
  CheckID J;
  uint32_t ReqBegin;
  uint32_t ReqSize;
  uint64_t Hash; ///< of J and the guard ids, for de-duplication
};

/// Gap g of a block is the run of check instructions before its g-th
/// non-check instruction (the last gap follows the terminator). A gap
/// starts at index 0 and right after every non-check.
bool startsGap(const std::vector<Instruction> &Insts, size_t I) {
  return I == 0 || !Insts[I - 1].isRangeCheck();
}

/// Whether gap \p G is marked in \p Needed (unmarked past its end).
bool neededGap(const std::vector<uint8_t> &Needed, size_t G) {
  return G < Needed.size() && Needed[G];
}

/// Marks gap \p G in \p Needed, growing it.
void markGap(std::vector<uint8_t> &Needed, size_t G) {
  if (Needed.size() <= G)
    Needed.resize(G + 1, 0);
  Needed[G] = 1;
}

/// Copies \p V into slot \p I of \p Slots, growing the table when it is
/// short. The slots keep their storage from block to block, so per-gap
/// snapshots copy into existing words instead of allocating.
void storeSlot(std::vector<DenseBitVector> &Slots, size_t I,
               const DenseBitVector &V) {
  if (Slots.size() <= I)
    Slots.resize(I + 1);
  Slots[I] = V;
}

class PairAuditor {
public:
  PairAuditor(Function &Orig, Function &Opt, const AuditOptions &Opts,
              AuditReport &Report)
      : Orig(Orig), Opt(Opt), Opts(Opts), Report(Report),
        OrigCtx(Orig, ImplicationMode::All, std::vector<PreheaderFact>{},
                Opts.Phases),
        DTOrig(Orig), LIOrig(Orig, DTOrig), DTOpt(Opt),
        Table(OrigCtx.universe()) {
    Antic = OrigCtx.solveAnticipatability();
    Avail = OrigCtx.solveAvailability();
    buildLoopEnvs(Orig, DTOrig, LIOrig, EnvOrig, PreheaderLoopOrig);
    NumLoops = EnvOrig.size();
    OutOf.assign(Table.size() * NumLoops, NotYet);
    GuardOf.assign(NumLoops, InvalidCheck);
    for (size_t L = 0; L != NumLoops; ++L)
      if (EnvOrig[L].L)
        GuardOf[L] = internForm(EnvOrig[L].DL->entryGuard());
    buildJustifiedAt();
  }

  void run() {
    {
      obs::ScopedPhase Stage(Opts.Phases, "direction-a");
      BlockOk.assign(Orig.numBlocks(), true);
      TrapGap.assign(Orig.numBlocks(), NoTrap);
      for (BlockID B = 0; B != Orig.numBlocks(); ++B)
        auditBlockPair(B);
      for (BlockID B = Orig.numBlocks(); B < Opt.numBlocks(); ++B)
        auditNewBlock(B);
    }
    obs::ScopedPhase Stage(Opts.Phases, "direction-b");
    auditCoverage();
  }

private:
  Function &Orig;
  Function &Opt;
  const AuditOptions &Opts;
  AuditReport &Report;

  CheckContext OrigCtx;
  DominatorTree DTOrig;
  LoopInfo LIOrig;
  DominatorTree DTOpt;
  DataflowResult Antic; ///< anticipatability over the original
  DataflowResult Avail; ///< availability over the original

  /// Per do-loop index of the original (the optimized CFG may have lost
  /// loops to trap truncation; all loop reasoning uses these).
  std::vector<LoopEnv> EnvOrig;
  size_t NumLoops = 0;
  /// Preheader block id -> do-loop index.
  std::unordered_map<BlockID, int> PreheaderLoopOrig;

  /// The transport table: every check the auditor moves across loops,
  /// interned. It starts as a copy of the original's universe, so an
  /// original check and its family keep their OrigCtx ids; transported
  /// forms and loop entry guards are interned after them. OutOf holds,
  /// per (check, do-loop), the check's form at that loop's preheader:
  /// the check itself when the loop leaves it invariant, the substituted
  /// check, InvalidCheck when it cannot be transported, or NotYet.
  CheckUniverse Table;
  std::vector<CheckID> OutOf; ///< row-major: check * NumLoops + loop
  static constexpr CheckID NotYet = InvalidCheck - 1;
  /// Per do-loop index: the table id of its entry guard (InvalidCheck for
  /// a loop without a natural loop).
  std::vector<CheckID> GuardOf;

  /// Justifications at each do-loop's preheader: the entries
  /// JustBegin[L] .. JustEnd[L] of Justs, with their guards in ReqPool.
  /// JustSlots indexes the loop being built, for de-duplication.
  std::vector<Justification> Justs;
  std::vector<uint32_t> JustBegin, JustEnd;
  std::vector<CheckID> ReqPool;
  std::vector<uint64_t> JustSlots;

  std::vector<bool> BlockOk;
  /// For direction B: per original block, the gap index (count of matched
  /// non-checks) at which the optimized block was truncated by a Trap, or
  /// npos when it was not.
  std::vector<size_t> TrapGap;

  std::optional<IntervalCheckClassification> Intervals;

  /// Scratch reused by every block the auditor visits: the gaps to
  /// snapshot and the checks found in them, the per-gap anticipatability
  /// and availability snapshots of the original (direction A), the
  /// running set they are cut from (also direction B's optimized
  /// availability), and the reachability search.
  std::vector<uint8_t> NeededGaps; ///< the gaps whose snapshot is read
  /// The checks of the optimized block being audited, with the gaps of
  /// the original they sit in, in block order.
  struct GapItem {
    size_t Idx;
    size_t Gap;
  };
  std::vector<GapItem> Items;
  std::vector<DenseBitVector> AnticAt, AvailAt;
  DenseBitVector Cur;
  ReachScratch Reach;

  const IntervalCheckClassification &intervals() {
    if (!Intervals)
      Intervals = classifyChecksByIntervals(Orig);
    return *Intervals;
  }

  static void buildLoopEnvs(const Function &F, const DominatorTree &DT,
                            const LoopInfo &LI, std::vector<LoopEnv> &Envs,
                            std::unordered_map<BlockID, int> &PreheaderLoop) {
    (void)DT;
    Envs.assign(F.doLoops().size(), LoopEnv{});
    for (size_t I = 0; I != F.doLoops().size(); ++I)
      Envs[I].DL = &F.doLoops()[I];
    for (const Loop *L : LI.loopsInnermostFirst()) {
      if (L->DoLoopIndex < 0)
        continue;
      LoopEnv &E = Envs[static_cast<size_t>(L->DoLoopIndex)];
      E.L = L;
      E.Defined = definedSymbols(F, *L);
      E.EveryIterCompletes = everyIterationCompletes(F, LI, *L);
      PreheaderLoop[E.DL->Preheader] = L->DoLoopIndex;
    }
  }

  AuditFinding finding(AuditRule Rule, BlockID B, size_t Idx,
                       const Instruction &I, std::string Message) const {
    AuditFinding F;
    F.Rule = Rule;
    F.Severity = AuditSeverity::Error;
    F.FunctionName = Opt.name();
    F.Block = B;
    F.InstIndex = Idx;
    F.Tag = I.Tag;
    F.Loc = I.Origin.Loc.isValid() ? I.Origin.Loc : I.Loc;
    F.Scheme = placementSchemeName(Opts.Scheme);
    F.Message = std::move(Message);
    return F;
  }

  /// Anchors a block-level finding that has no instruction of its own:
  /// an instruction-less stand-in, so the finding has no location.
  static const Instruction &noInstruction() {
    static const Instruction None;
    return None;
  }

  std::string checkStr(const CheckExpr &C) const {
    return C.str(Opt.symbols());
  }

  bool tableTrue(CheckID C) const { return constTrue(Table.check(C)); }
  bool tableFalse(CheckID C) const { return constFalse(Table.check(C)); }

  /// Interns \p C into the transport table, growing OutOf to match.
  CheckID internForm(const CheckExpr &C) {
    CheckID ID = Table.intern(C);
    if (OutOf.size() < Table.size() * NumLoops)
      OutOf.resize(Table.size() * NumLoops, NotYet);
    return ID;
  }

  /// The check \p CE, which do-loop \p Env does not leave invariant,
  /// with the extreme value of the loop's index (or basic) variable
  /// substituted, exactly as loop-limit substitution does — but
  /// re-deriving every side condition. Returns nullopt when the check
  /// cannot be spoken for at the preheader.
  static std::optional<CheckExpr> substituteOut(const CheckExpr &CE,
                                                const LoopEnv &Env) {
    const DoLoopInfo &DL = *Env.DL;
    if (DL.Step != 1 && DL.Step != -1)
      return std::nullopt;
    int64_t CI = CE.expr().coeff(DL.IndexVar);
    int64_t CB = DL.BasicVar != InvalidSymbol ? CE.expr().coeff(DL.BasicVar)
                                              : 0;
    SymbolID Var;
    int64_t Coeff;
    LinearExpr MinV, MaxV;
    LinearExpr IdxMin = DL.Step > 0 ? DL.LowerBound : DL.UpperBound;
    LinearExpr IdxMax = DL.Step > 0 ? DL.UpperBound : DL.LowerBound;
    if (CI != 0 && CB == 0) {
      Var = DL.IndexVar;
      Coeff = CI;
      MinV = IdxMin;
      MaxV = IdxMax;
    } else if (CB != 0 && CI == 0) {
      Var = DL.BasicVar;
      Coeff = CB;
      MinV = LinearExpr::constant(0);
      MaxV = DL.lastIterationIndexOffset();
    } else {
      return std::nullopt; // both or neither loop variable involved
    }
    LinearExpr Rest = CE.expr();
    Rest.removeTerm(Var);
    if (!exprInvariant(Rest, Env.Defined))
      return std::nullopt;
    LinearExpr Subst = substituteExtreme(CE.expr(), Var, Coeff, MinV, MaxV);
    if (!exprInvariant(Subst, Env.Defined))
      return std::nullopt; // bound expression redefined inside the loop
    return CheckExpr(Subst, CE.bound());
  }

  /// Transports table check \p C out of do-loop \p LIdx: \p C itself
  /// when the loop leaves it invariant, the table id of its substituted
  /// form otherwise, InvalidCheck when it cannot be transported. Each
  /// (check, loop) is derived once and then read from OutOf.
  ///
  /// \p RequireCompletion: direction A transports an anticipated body
  /// check to the preheader, which is only sound when every started
  /// iteration reaches the extreme one. Direction B transports a
  /// *performed* preheader check into the body, where the do-loop header
  /// test already bounds the index, so completion is not needed.
  CheckID transportOut(CheckID C, size_t LIdx, bool RequireCompletion) {
    const LoopEnv &Env = EnvOrig[LIdx];
    CheckID R = OutOf[C * NumLoops + LIdx];
    if (R == NotYet) {
      const CheckExpr &CE = Table.check(C);
      if (exprInvariant(CE.expr(), Env.Defined))
        R = C;
      else if (std::optional<CheckExpr> T = substituteOut(CE, Env))
        R = internForm(*T);
      else
        R = InvalidCheck;
      OutOf[C * NumLoops + LIdx] = R;
    }
    if (RequireCompletion && R != C && !Env.EveryIterCompletes)
      return InvalidCheck;
    return R;
  }

  /// Adds the justification (J, Req) to the loop being built unless an
  /// equal one is there; Req is \p NumReq pool entries from \p ReqFrom
  /// followed by \p Last. The loop's entries start at \p Begin.
  void addJustification(uint32_t Begin, CheckID J, uint32_t ReqFrom,
                        uint32_t NumReq, CheckID Last) {
    uint64_t H = J;
    for (uint32_t K = 0; K != NumReq; ++K)
      H = H * 31 + ReqPool[ReqFrom + K];
    H = H * 31 + Last;
    H *= 0x9e3779b97f4a7c15ull;
    auto Same = [&](const Justification &E) {
      if (E.Hash != H || E.J != J || E.ReqSize != NumReq + 1 ||
          ReqPool[E.ReqBegin + NumReq] != Last)
        return false;
      for (uint32_t K = 0; K != NumReq; ++K)
        if (ReqPool[E.ReqBegin + K] != ReqPool[ReqFrom + K])
          return false;
      return true;
    };
    // Open addressing over the loop's entries (index + 1; 0 is free),
    // kept at most half full.
    size_t Count = Justs.size() - Begin;
    if (2 * (Count + 1) > JustSlots.size()) {
      JustSlots.assign(std::bit_ceil(std::max<size_t>(16, 4 * (Count + 1))),
                       0);
      for (size_t E = Begin; E != Justs.size(); ++E) {
        size_t I = Justs[E].Hash & (JustSlots.size() - 1);
        while (JustSlots[I] != 0)
          I = (I + 1) & (JustSlots.size() - 1);
        JustSlots[I] = E - Begin + 1;
      }
    }
    size_t Mask = JustSlots.size() - 1;
    size_t I = H & Mask;
    for (; JustSlots[I] != 0; I = (I + 1) & Mask)
      if (Same(Justs[Begin + JustSlots[I] - 1]))
        return;
    JustSlots[I] = Count + 1;
    uint32_t ReqBegin = static_cast<uint32_t>(ReqPool.size());
    for (uint32_t K = 0; K != NumReq; ++K) {
      CheckID R = ReqPool[ReqFrom + K];
      ReqPool.push_back(R);
    }
    ReqPool.push_back(Last);
    Justs.push_back({J, ReqBegin, NumReq + 1, H});
  }

  /// The justifications at the preheader of do-loop \p LIdx.
  std::span<const Justification> justifiedAt(size_t LIdx) const {
    return {Justs.data() + JustBegin[LIdx], Justs.data() + JustEnd[LIdx]};
  }

  /// Builds, for every do-loop of the *original*, the set of checks whose
  /// failure at the preheader (under stated conditions) implies the
  /// original traps. Loops are visited innermost-first so inner loops'
  /// entries are ready when outer loops lift them.
  void buildJustifiedAt() {
    // A loop that is never built keeps an empty range.
    JustBegin.assign(NumLoops, 0);
    JustEnd.assign(NumLoops, 0);
    for (const Loop *L : LIOrig.loopsInnermostFirst()) {
      if (L->DoLoopIndex < 0)
        continue;
      size_t LIdx = static_cast<size_t>(L->DoLoopIndex);
      const LoopEnv &Env = EnvOrig[LIdx];
      if (!Env.L)
        continue;
      const DoLoopInfo &DL = *Env.DL;
      CheckID Guard = GuardOf[LIdx];
      uint32_t Begin = static_cast<uint32_t>(Justs.size());
      JustSlots.assign(JustSlots.size(), 0);
      // Base: checks anticipated at the body entry. If the guard holds,
      // the first iteration runs the body; an anticipated check failing
      // there traps on every body path. Invariant w.r.t. the header's
      // definitions would be enough (the header redefines nothing; index
      // updates live in the latch), but be conservative and require full
      // loop-invariance or a valid limit substitution.
      if (DL.BodyEntry < Antic.In.numRows()) {
        ConstBitRow In = Antic.In[DL.BodyEntry];
        In.forEachSetBit([&](size_t Bit) {
          CheckID T = transportOut(static_cast<CheckID>(Bit), LIdx, true);
          if (T != InvalidCheck)
            addJustification(Begin, T, 0, 0, Guard);
        });
      }
      // Lift: an inner do-loop M whose preheader is an articulation point
      // of L's body (every completing iteration passes through it)
      // forwards its own justifications, transported across L.
      for (const Loop *M : LIOrig.loopsInnermostFirst()) {
        if (M == L || M->DoLoopIndex < 0 || !L->contains(M->Header))
          continue;
        size_t MIdx = static_cast<size_t>(M->DoLoopIndex);
        const DoLoopInfo &MDL = *EnvOrig[MIdx].DL;
        if (reachesWithout(Orig, DL.BodyEntry, MDL.Preheader, DL.Latch,
                           Reach))
          continue; // not an articulation point of L's body
        if (!Env.EveryIterCompletes)
          continue; // the first iteration might not reach M's preheader...
        for (size_t E = JustBegin[MIdx]; E != JustEnd[MIdx]; ++E) {
          Justification J2 = Justs[E]; // a copy: Justs grows below
          bool ReqOk = true;
          for (uint32_t K = 0; K != J2.ReqSize && ReqOk; ++K)
            ReqOk = exprInvariant(Table.check(ReqPool[J2.ReqBegin + K]).expr(),
                                  Env.Defined);
          if (!ReqOk)
            continue;
          CheckID T = transportOut(J2.J, LIdx, true);
          if (T != InvalidCheck)
            addJustification(Begin, T, J2.ReqBegin, J2.ReqSize, Guard);
        }
      }
      JustBegin[LIdx] = Begin;
      JustEnd[LIdx] = static_cast<uint32_t>(Justs.size());
    }
  }

  /// Per-gap anticipatability of original block \p B (with \p NumGaps
  /// gaps) into AnticAt, for the gaps marked in NeededGaps: AnticAt[g] is
  /// the set anticipated immediately before the first instruction of gap
  /// g (the block's exit set for the gap after the terminator).
  void anticAtGaps(BlockID B, size_t NumGaps) {
    const auto &Insts = Orig.block(B)->instructions();
    if (B < Antic.Out.numRows())
      Cur = Antic.Out[B];
    else
      Cur = DenseBitVector(OrigCtx.universe().size());
    size_t G = NumGaps;
    for (size_t I = Insts.size();; --I) {
      if (startsGap(Insts, I) && neededGap(NeededGaps, --G))
        storeSlot(AnticAt, G, Cur);
      if (I == 0)
        break;
      OrigCtx.applyKill(Insts[I - 1], Cur);
      OrigCtx.applyAnticGen(B, I - 1, Insts[I - 1], Cur);
    }
  }

  /// True when some symbol of \p E is (re)defined at or after position
  /// \p From in optimized block \p B, excluding the terminator.
  bool tailDefines(BlockID B, size_t From, const LinearExpr &E) const {
    const auto &Insts = Opt.block(B)->instructions();
    for (size_t I = From; I != Insts.size(); ++I)
      if (Insts[I].Dest != InvalidSymbol && E.references(Insts[I].Dest))
        return true;
    return false;
  }

  /// Follows split-block forwarding in the optimized CFG: a target >= the
  /// original block count that is a pure Jump block stands for its (
  /// original-id) destination. A split block truncated into a Trap keeps
  /// standing for whatever the matching original edge targeted.
  BlockID resolveOptTarget(BlockID T) const {
    size_t Guard = 0;
    while (T != InvalidBlock && T >= Orig.numBlocks() &&
           Guard++ < Opt.numBlocks()) {
      const BasicBlock *BB = Opt.block(T);
      if (BB->hasTerminator() && BB->terminator().Op == Opcode::Jump)
        T = BB->terminator().TrueTarget;
      else
        break;
    }
    return T;
  }

  /// Structural equality of two non-check instructions across the pair.
  /// Branch targets are compared modulo split-block forwarding.
  bool sameNonCheck(const Instruction &A, const Instruction &B) const {
    if (A.Op != B.Op)
      return false;
    if (A.Dest != B.Dest || A.Array != B.Array || A.Callee != B.Callee)
      return false;
    if (A.Operands != B.Operands || A.Indices != B.Indices)
      return false;
    if (A.Op == Opcode::Br || A.Op == Opcode::Jump) {
      BlockID BT = resolveOptTarget(B.TrueTarget);
      // A Trap-truncated split block cannot be resolved; accept it, the
      // truncation itself was audited where the Trap sits.
      if (BT < Orig.numBlocks() && BT != A.TrueTarget)
        return false;
      if (A.Op == Opcode::Br) {
        BlockID BF = resolveOptTarget(B.FalseTarget);
        if (BF < Orig.numBlocks() && BF != A.FalseTarget)
          return false;
      }
    }
    return true;
  }

  /// The family of optimized check \p C in the transport table (the
  /// only hash of its expression the rules below take) and, when that
  /// family is one of the original's, the same id in OrigCtx's universe.
  struct CheckFamilies {
    FamilyID Table = InvalidFamily;
    FamilyID Orig = InvalidFamily;
  };
  CheckFamilies familiesOf(const CheckExpr &C) const {
    CheckFamilies Out;
    Out.Table = Table.findFamily(C.expr());
    if (Out.Table < OrigCtx.universe().numFamilies())
      Out.Orig = Out.Table;
    return Out;
  }

  /// Rule (a): some check anticipated at this gap's start in the original
  /// is as strong as \p C — executing C here can only trap where the
  /// original was already doomed to trap.
  bool justifiedAnticipated(ConstBitRow AnticGap,
                            const CheckExpr &C, CheckFamilies Fam) const {
    return anyAsStrongAs(OrigCtx.universe(), AnticGap, Fam.Orig, C.bound());
  }

  /// Rule (c): some check the original performs on every path to this gap
  /// is as strong as \p C — C can never fire first.
  bool justifiedAvailable(ConstBitRow AvailGap,
                          const CheckExpr &C, CheckFamilies Fam) const {
    return anyAsStrongAs(OrigCtx.universe(), AvailGap, Fam.Orig, C.bound());
  }

  /// Rule (b): \p Payload (of table family \p Fam) sits in the preheader
  /// of original do-loop \p LIdx guarded by \p Guards; check the guard
  /// chain against the reconstructed justifications. Extra guards only
  /// weaken the check.
  bool justifiedPreheader(size_t LIdx, const CheckExpr &Payload,
                          FamilyID Fam,
                          const std::vector<CheckExpr> &Guards) const {
    if (Fam == InvalidFamily)
      return false; // no justification shares the payload's expression
    for (const Justification &J : justifiedAt(LIdx)) {
      // J is as strong as the payload: same expression, bound no larger.
      if (Table.familyOf(J.J) != Fam ||
          Table.check(J.J).bound() > Payload.bound())
        continue;
      bool ReqOk = true;
      for (uint32_t K = 0; K != J.ReqSize && ReqOk; ++K) {
        CheckID R = ReqPool[J.ReqBegin + K];
        if (tableTrue(R))
          continue;
        ReqOk = false;
        for (const CheckExpr &G : Guards)
          if (Table.check(R) == G) {
            ReqOk = true;
            break;
          }
      }
      if (ReqOk)
        return true;
    }
    return false;
  }

  void auditPlainCheck(BlockID B, size_t OI, const Instruction &I,
                       const DenseBitVector &AnticGap,
                       const DenseBitVector &AvailGap) {
    ++Report.stats().ChecksAudited;
    const CheckExpr &C = I.Check;
    if (constTrue(C))
      return; // can never trap
    CheckFamilies Fam = familiesOf(C);
    if (justifiedAnticipated(AnticGap, C, Fam)) {
      ++Report.stats().JustifiedAnticipated;
      return;
    }
    if (justifiedAvailable(AvailGap, C, Fam)) {
      ++Report.stats().JustifiedAvailable;
      return;
    }
    // Demoted preheader check (a CondCheck whose guards all folded to
    // true): justify it the way the CondCheck would have been. The
    // justification chain is a property of the ORIGINAL loop structure;
    // the optimized CFG may have lost the loop (a hoisted compile-time
    // false check folded into a Trap truncates the preheader), so only
    // the original's preheader map gates this path.
    if (PreheaderLoopOrig.count(B) &&
        !tailDefines(B, OI + 1, C.expr()) &&
        justifiedPreheader(static_cast<size_t>(
                               PreheaderLoopOrig.find(B)->second),
                           C, Fam.Table, {})) {
      ++Report.stats().JustifiedPreheader;
      return;
    }
    AuditFinding F = finding(
        AuditRule::CheckNotJustified, B, OI, I,
        "residual check is neither anticipated in the original nor "
        "implied by a check the original always performs first");
    F.Witness.push_back("check: " + checkStr(C));
    F.Witness.push_back("tried: anticipated-at-gap, available-at-gap, "
                        "preheader-justification");
    Report.add(std::move(F));
  }

  void auditCondCheck(BlockID B, size_t OI, const Instruction &I,
                      const DenseBitVector &AnticGap,
                      const DenseBitVector &AvailGap) {
    ++Report.stats().CondChecksAudited;
    const CheckExpr &C = I.Check;
    if (constTrue(C))
      return;
    // A conditional check is weaker than its payload; payload-level
    // justification carries over.
    CheckFamilies Fam = familiesOf(C);
    if (justifiedAnticipated(AnticGap, C, Fam)) {
      ++Report.stats().JustifiedAnticipated;
      return;
    }
    if (justifiedAvailable(AvailGap, C, Fam)) {
      ++Report.stats().JustifiedAvailable;
      return;
    }
    auto It = PreheaderLoopOrig.find(B);
    if (It == PreheaderLoopOrig.end()) {
      AuditFinding F = finding(
          AuditRule::CondCheckNotJustified, B, OI, I,
          "conditional check outside any do-loop preheader");
      F.Witness.push_back("check: " + checkStr(C));
      Report.add(std::move(F));
      return;
    }
    bool Tail = tailDefines(B, OI + 1, C.expr());
    for (const CheckExpr &G : I.Guards)
      Tail = Tail || tailDefines(B, OI + 1, G.expr());
    if (!Tail && justifiedPreheader(static_cast<size_t>(It->second), C,
                                    Fam.Table, I.Guards)) {
      ++Report.stats().JustifiedPreheader;
      return;
    }
    AuditFinding F = finding(
        AuditRule::CondCheckNotJustified, B, OI, I,
        "guarded preheader check has no reconstructible justification "
        "chain from the original's anticipated body checks");
    F.Witness.push_back("check: " + checkStr(C));
    for (const CheckExpr &G : I.Guards)
      F.Witness.push_back("guard: " + checkStr(G));
    Report.add(std::move(F));
  }

  /// \p G is the gap the trap sits in; \p NcEnd the original inst index of
  /// the non-check ending the gap (or block size for the last gap).
  void auditTrap(BlockID B, size_t OI, const Instruction &I, size_t G,
                 const DenseBitVector &AnticGap) {
    ++Report.stats().TrapsAudited;
    // (i) a check anticipated here is statically false: every original
    // continuation trips it.
    bool Found = false;
    AnticGap.forEachSetBit([&](size_t Bit) {
      if (constFalse(OrigCtx.universe().check(static_cast<CheckID>(Bit))))
        Found = true;
    });
    if (Found)
      return;
    // (ii) the interval classifier proves an original check of this gap
    // always fails.
    const auto &OInsts = Orig.block(B)->instructions();
    size_t Start = 0;
    for (size_t Seen = 0; Seen != G; ++Start)
      Seen += !OInsts[Start].isRangeCheck();
    for (size_t Idx = Start; Idx < OInsts.size() && OInsts[Idx].isRangeCheck();
         ++Idx) {
      const Instruction &OInst = OInsts[Idx];
      if (OInst.Op == Opcode::Check &&
          intervals().at(B, Idx) == IntervalVerdict::AlwaysFails) {
        ++Report.stats().IntervalDischarged;
        return;
      }
    }
    // (iv) preheader: a justification with statically-false check and
    // statically-true conditions proves the loop always traps.
    auto It = PreheaderLoopOrig.find(B);
    if (It != PreheaderLoopOrig.end()) {
      for (const Justification &J :
           justifiedAt(static_cast<size_t>(It->second))) {
        bool ReqOk = tableFalse(J.J);
        for (uint32_t K = 0; K != J.ReqSize && ReqOk; ++K)
          ReqOk = tableTrue(ReqPool[J.ReqBegin + K]);
        if (ReqOk)
          return;
      }
    }
    AuditFinding F = finding(
        AuditRule::TrapNotJustified, B, OI, I,
        "trap instruction without a provably-failing original check at "
        "this point");
    Report.add(std::move(F));
  }

  /// Walks the optimized version of original block \p B against the
  /// original, matching non-check instructions one-to-one and auditing
  /// every check/trap in between against the gap it occupies.
  void auditBlockPair(BlockID B) {
    const BasicBlock &OB = *Orig.block(B);
    const BasicBlock &PB = *Opt.block(B);
    const auto &OInsts = OB.instructions();
    // The original's availability walk runs in step with the matching:
    // while the optimized block is in gap g, Cur is the set available at
    // the start of the original's gap g, so a check there snapshots it
    // into AvailAt[g]. Anticipatability runs backward, afterwards, over
    // the gaps the matching found checks or a trap in.
    if (B < Avail.In.numRows())
      Cur = Avail.In[B];
    else
      Cur = DenseBitVector(OrigCtx.universe().size());
    Cur |= OrigCtx.genInBits(B);
    size_t Walked = 0; // original instructions the availability walk passed
    size_t NumNc = 0;  // non-checks among them
    auto walkTo = [&](size_t End) {
      for (; Walked != End; ++Walked) {
        NumNc += !OInsts[Walked].isRangeCheck();
        OrigCtx.applyKill(OInsts[Walked], Cur);
        OrigCtx.applyAvailGen(B, Walked, OInsts[Walked], Cur);
      }
    };
    NeededGaps.clear();
    Items.clear();
    size_t RNc = 0;  // non-checks matched so far == current gap index
    size_t OPos = 0; // original index past the last matched non-check
    size_t StopAt = PB.size(); // optimized index of a trap or mismatch
    for (size_t OI = 0; OI != PB.size(); ++OI) {
      const Instruction &I = PB.instructions()[OI];
      if (I.isRangeCheck()) {
        if (!neededGap(NeededGaps, RNc))
          storeSlot(AvailAt, RNc, Cur);
        Items.push_back({OI, RNc});
        markGap(NeededGaps, RNc);
        continue;
      }
      while (OPos < OB.size() && OInsts[OPos].isRangeCheck())
        ++OPos;
      if (OPos < OB.size() && sameNonCheck(OInsts[OPos], I)) {
        ++RNc;
        walkTo(++OPos);
        continue;
      }
      if (I.Op == Opcode::Trap)
        markGap(NeededGaps, RNc);
      StopAt = OI;
      break;
    }
    walkTo(OB.size());
    anticAtGaps(B, NumNc + 1);
    for (const GapItem &It : Items) {
      const Instruction &I = PB.instructions()[It.Idx];
      if (I.Op == Opcode::Check)
        auditPlainCheck(B, It.Idx, I, AnticAt[It.Gap], AvailAt[It.Gap]);
      else
        auditCondCheck(B, It.Idx, I, AnticAt[It.Gap], AvailAt[It.Gap]);
    }
    if (StopAt != PB.size()) {
      const Instruction &I = PB.instructions()[StopAt];
      if (I.Op == Opcode::Trap) {
        // Compile-time-false check folded into a trap, truncating the
        // block; everything after it in the original is unreachable.
        auditTrap(B, StopAt, I, RNc, AnticAt[RNc]);
        TrapGap[B] = RNc;
        return;
      }
      AuditFinding F = finding(
          AuditRule::IrCorrespondence, B, StopAt, I,
          "optimized instruction does not correspond to the original "
          "block's instruction sequence");
      Report.add(std::move(F));
      BlockOk[B] = false;
      return;
    }
    if (RNc != NumNc) {
      // An emptied optimized block is anchored at the original's
      // terminator.
      const Instruction &At = !PB.empty()        ? PB.instructions().back()
                              : OB.hasTerminator() ? OB.terminator()
                                                   : noInstruction();
      AuditFinding F = finding(
          AuditRule::IrCorrespondence, B, PB.size(), At,
          "optimized block dropped non-check instructions of the original");
      Report.add(std::move(F));
      BlockOk[B] = false;
    }
  }

  /// Audits a block the optimizer appended (critical-edge split). Checks
  /// placed here by PRE must be anticipated at the edge's target or
  /// available out of its source, both in the original.
  void auditNewBlock(BlockID NB) {
    const BasicBlock &BB = *Opt.block(NB);
    const auto &Preds = BB.preds();
    if (Preds.empty())
      return; // unreachable (e.g. its predecessor got trap-truncated)
    BlockID From = InvalidBlock;
    if (Preds.size() == 1 && Preds[0] < Orig.numBlocks())
      From = Preds[0];
    BlockID T = InvalidBlock;
    if (From != InvalidBlock) {
      const Instruction &OT = Orig.block(From)->terminator();
      const Instruction &PT = Opt.block(From)->terminator();
      if (PT.TrueTarget == NB)
        T = OT.TrueTarget;
      else if (PT.FalseTarget == NB)
        T = OT.FalseTarget;
    }
    if (T == InvalidBlock) {
      AuditFinding F = finding(
          AuditRule::IrCorrespondence, NB, 0,
          BB.empty() ? noInstruction() : BB.instructions().front(),
          "inserted block cannot be anchored to an edge of the original "
          "control-flow graph");
      Report.add(std::move(F));
      return;
    }
    ConstBitRow AnticT = Antic.In[T];
    ConstBitRow AvailFrom = Avail.Out[From];
    for (size_t OI = 0; OI != BB.size(); ++OI) {
      const Instruction &I = BB.instructions()[OI];
      switch (I.Op) {
      case Opcode::Check: {
        ++Report.stats().ChecksAudited;
        if (constTrue(I.Check))
          break;
        CheckFamilies Fam = familiesOf(I.Check);
        if (justifiedAnticipated(AnticT, I.Check, Fam)) {
          ++Report.stats().JustifiedAnticipated;
          break;
        }
        if (justifiedAvailable(AvailFrom, I.Check, Fam)) {
          ++Report.stats().JustifiedAvailable;
          break;
        }
        AuditFinding F = finding(
            AuditRule::CheckNotJustified, NB, OI, I,
            "check inserted on a split edge is not anticipated at the "
            "edge's target in the original");
        F.Witness.push_back("check: " + checkStr(I.Check));
        Report.add(std::move(F));
        break;
      }
      case Opcode::CondCheck: {
        ++Report.stats().CondChecksAudited;
        AuditFinding F = finding(
            AuditRule::CondCheckNotJustified, NB, OI, I,
            "conditional check in a split block, outside any preheader");
        Report.add(std::move(F));
        break;
      }
      case Opcode::Trap: {
        ++Report.stats().TrapsAudited;
        bool Found = false;
        AnticT.forEachSetBit([&](size_t Bit) {
          if (constFalse(
                  OrigCtx.universe().check(static_cast<CheckID>(Bit))))
            Found = true;
        });
        if (!Found) {
          AuditFinding F = finding(
              AuditRule::TrapNotJustified, NB, OI, I,
              "trap in a split block without a statically-failing check "
              "anticipated at the edge's target");
          Report.add(std::move(F));
        }
        break;
      }
      case Opcode::Jump:
        break;
      default: {
        AuditFinding F = finding(
            AuditRule::IrCorrespondence, NB, OI, I,
            "inserted block contains a non-check computation");
        Report.add(std::move(F));
        break;
      }
      }
    }
  }

  // --- Direction B: no lost traps ----------------------------------------

  /// Enumerates nesting chains of do-loops: [L1..Lt] where each next
  /// loop's preheader lies inside the previous loop, appended to
  /// \p Pool back to back (each chain's end is recorded in \p Ends). The
  /// chains come from the ORIGINAL loop structure: a trap-truncated body
  /// leaves the optimized latch unreachable and dissolves the loop in the
  /// optimized LoopInfo, yet the surviving loop-control instructions
  /// still behave exactly as the original metadata describes. Nesting
  /// depth strictly increases along a chain, so enumeration terminates.
  void enumerateChains(std::vector<uint32_t> &Chain,
                       std::vector<uint32_t> &Pool,
                       std::vector<uint32_t> &Ends) const {
    Pool.insert(Pool.end(), Chain.begin(), Chain.end());
    Ends.push_back(static_cast<uint32_t>(Pool.size()));
    const LoopEnv &Last = EnvOrig[Chain.back()];
    for (uint32_t M = 0; M != EnvOrig.size(); ++M) {
      if (!EnvOrig[M].L || M == Chain.back())
        continue;
      if (Last.L->contains(EnvOrig[M].DL->Preheader)) {
        Chain.push_back(M);
        enumerateChains(Chain, Pool, Ends);
        Chain.pop_back();
      }
    }
  }

  /// Transports table check \p D from the innermost chain loop's body
  /// entry out to the head loop's preheader, one loop at a time, each
  /// step a transport-table read once derived. Completion is not
  /// required: at body entry the do-loop header test already confines
  /// each index to its range. Returns \p D itself when it is invariant in
  /// every chain loop, and InvalidCheck when it cannot be transported.
  CheckID chainTransport(CheckID D, std::span<const uint32_t> Chain) {
    for (size_t K = Chain.size(); K-- > 0 && D != InvalidCheck;)
      D = transportOut(D, Chain[K], false);
    return D;
  }

  /// Validates preheader facts over the *optimized* IR from scratch: the
  /// guarded checks actually present, plus checks the loop-entry tests
  /// themselves guarantee. These seed the direction-B availability.
  std::vector<PreheaderFact> collectFacts() {
    std::vector<PreheaderFact> Facts;
    const CheckUniverse &U = OrigCtx.universe();
    // Facts already recorded, per body entry, by universe id: a body's
    // row of Seen, numbered on its first fact.
    std::vector<uint32_t> SeenRow(Orig.numBlocks(), ~0u);
    std::vector<uint8_t> Seen;
    auto addFact = [&](BlockID Body, CheckID D) {
      if (SeenRow[Body] == ~0u) {
        SeenRow[Body] = static_cast<uint32_t>(Seen.size() / U.size());
        Seen.resize(Seen.size() + U.size(), 0);
      }
      uint8_t &Done = Seen[SeenRow[Body] * U.size() + D];
      if (!Done) {
        Done = 1;
        Facts.push_back({Body, U.check(D)});
        ++Report.stats().FactsValidated;
      }
    };
    // Per chain: each universe check's table id at the head preheader
    // (InvalidCheck when it cannot be transported), read by both kinds of
    // fact.
    std::vector<CheckID> Transported(U.size());

    std::vector<uint32_t> Chain, Pool, Ends;
    for (uint32_t I = 0; I != EnvOrig.size(); ++I)
      if (EnvOrig[I].L) {
        Chain.assign(1, I);
        enumerateChains(Chain, Pool, Ends);
      }

    for (size_t CI = 0; CI != Ends.size(); ++CI) {
      std::span<const uint32_t> Chain(Pool.data() + (CI ? Ends[CI - 1] : 0),
                                      Pool.data() + Ends[CI]);
      BlockID Body = EnvOrig[Chain.back()].DL->BodyEntry;
      for (CheckID D = 0; D != U.size(); ++D)
        Transported[D] = chainTransport(D, Chain);
      // Loop-semantics facts: substituting every chained index's extreme
      // leaves a statically-true check, so the header tests alone
      // guarantee D at the innermost body entry.
      for (CheckID D = 0; D != U.size(); ++D)
        if (Transported[D] != InvalidCheck && tableTrue(Transported[D]))
          addFact(Body, D);
      // Instruction facts: a (guarded) check physically in the head
      // preheader covers D when its payload is as strong as D's
      // transported form and each guard is an entry guard the chain's
      // execution implies.
      BlockID P = EnvOrig[Chain.front()].DL->Preheader;
      if (!DTOpt.dominates(P, Body))
        continue;
      const BasicBlock &PB = *Opt.block(P);
      for (size_t I = 0; I != PB.size(); ++I) {
        const Instruction &Inst = PB.instructions()[I];
        if (!Inst.isRangeCheck())
          continue;
        if (tailDefines(P, I + 1, Inst.Check.expr()))
          continue;
        bool GuardsOk = true;
        for (const CheckExpr &G : Inst.Guards) {
          if (constTrue(G))
            continue;
          if (tailDefines(P, I + 1, G.expr())) {
            GuardsOk = false;
            break;
          }
          bool Match = false;
          for (size_t K = 0; K != Chain.size() && !Match; ++K) {
            if (!(Table.check(GuardOf[Chain[K]]) == G))
              continue;
            bool Inv = true;
            for (size_t J = 0; J != K; ++J)
              Inv = Inv && exprInvariant(G.expr(), EnvOrig[Chain[J]].Defined);
            Match = Inv;
          }
          if (!Match) {
            GuardsOk = false;
            break;
          }
        }
        if (!GuardsOk)
          continue;
        // The payload covers D when D's transported form has the
        // payload's expression and a bound no smaller.
        FamilyID Fam = Table.findFamily(Inst.Check.expr());
        if (Fam == InvalidFamily)
          continue;
        for (CheckID D = 0; D != U.size(); ++D) {
          CheckID T = Transported[D];
          if (T != InvalidCheck && Table.familyOf(T) == Fam &&
              Inst.Check.bound() <= Table.check(T).bound())
            addFact(Body, D);
        }
      }
    }
    return Facts;
  }

  /// Direction B waiver for induction-variable elimination (Markstein):
  /// an original check inside a do-loop nest whose loop-limit substitution
  /// is compile-time true can never fire, so deleting it loses no trap.
  /// Re-derived purely from the original's loop metadata, independent of
  /// whatever reasoning the optimizer used. Header and latch blocks are
  /// excluded per loop: there the loop variables are outside the [first,
  /// last] iteration range the substitution speaks for. \p C is the
  /// check's id in OrigCtx's universe, and so in the transport table.
  bool loopLimitAlwaysPasses(BlockID B, CheckID C) {
    for (const Loop *L : LIOrig.loopsInnermostFirst()) {
      if (L->DoLoopIndex < 0)
        continue;
      size_t LIdx = static_cast<size_t>(L->DoLoopIndex);
      const LoopEnv &Env = EnvOrig[LIdx];
      if (!Env.L || !Env.L->contains(B))
        continue;
      CheckID T = transportOut(C, LIdx, false);
      if (T == C)
        continue; // invariant in this loop
      if (B == Env.DL->Header || B == Env.DL->Latch)
        return false;
      if (T == InvalidCheck)
        return false;
      C = T;
      if (tableTrue(C))
        return true;
    }
    return false;
  }

  /// Direction B proper: availability over the optimized IR (seeded with
  /// validated facts) must cover every original check at its gap.
  void auditCoverage() {
    std::vector<PreheaderFact> Facts = collectFacts();
    CheckContext BCtx(Opt, ImplicationMode::All, Facts, Opts.Phases);
    lintCheckImplicationGraph(BCtx.universe(), BCtx.cig(), Opt.name(), Report);
    DataflowResult BAvail = BCtx.solveAvailability();
    // Each original family's id in BCtx's universe, for the cover test.
    const CheckUniverse &OrigU = OrigCtx.universe();
    std::vector<FamilyID> BFamily(OrigU.numFamilies());
    for (FamilyID F = 0; F != OrigU.numFamilies(); ++F)
      BFamily[F] = BCtx.universe().findFamily(OrigU.familyExpr(F));
    for (BlockID B = 0; B != Orig.numBlocks(); ++B) {
      if (!BlockOk[B])
        continue; // correspondence already broken; findings exist
      if (!DTOpt.isReachable(B)) {
        // Every optimized path towards this block traps first (folding a
        // compile-time-false check into a Trap truncates its block and can
        // sever whole regions): the original can only reach these checks
        // along paths on which the optimized program has already trapped,
        // so the obligation is vacuous. Direction A audits that trap.
        for (const Instruction &D : Orig.block(B)->instructions())
          if (D.Op == Opcode::Check)
            ++Report.stats().OriginalChecksCovered;
        continue;
      }
      // The optimized availability walk runs in step with the original
      // block: when it reaches its g-th non-check, Cur is the set
      // available at the end of its gap g, and the original checks of
      // gap g are judged against it. Gaps past the optimized block's
      // non-checks have no such set.
      const BasicBlock &OB = *Orig.block(B);
      const BasicBlock &PB = *Opt.block(B);
      size_t OIdx = 0, G = 0;
      auto judgeGap = [&](const DenseBitVector *AvailEnd) {
        for (; OIdx != OB.size(); ++OIdx) {
          const Instruction &D = OB.instructions()[OIdx];
          if (!D.isRangeCheck()) {
            ++OIdx;
            ++G;
            return;
          }
          if (D.Op == Opcode::Check) // the original carries only plain checks
            judgeOriginalCheck(B, OIdx, G, D, BCtx, BFamily, AvailEnd);
        }
      };
      Cur = BAvail.In[B];
      Cur |= BCtx.genInBits(B);
      for (size_t I = 0; I != PB.size(); ++I) {
        const Instruction &Inst = PB.instructions()[I];
        if (!Inst.isRangeCheck())
          judgeGap(&Cur);
        BCtx.applyKill(Inst, Cur);
        BCtx.applyAvailGen(B, I, Inst, Cur);
      }
      while (OIdx != OB.size())
        judgeGap(nullptr);
    }
  }

  /// Direction B's obligation for original check \p D at (\p B, \p Idx)
  /// in gap \p G: some as-strong-or-stronger check is available in
  /// \p AvailEnd (the optimized availability at the end of gap G, null
  /// when the optimized block has no such gap), or the check is vacuous
  /// or independently discharged.
  void judgeOriginalCheck(BlockID B, size_t Idx, size_t G,
                          const Instruction &D, const CheckContext &BCtx,
                          const std::vector<FamilyID> &BFamily,
                          const DenseBitVector *AvailEnd) {
    if (constTrue(D.Check)) {
      ++Report.stats().OriginalChecksCovered;
      return;
    }
    if (TrapGap[B] != NoTrap && G >= TrapGap[B]) {
      // The optimized program traps before this point on every path
      // that reaches it; the obligation is vacuous.
      ++Report.stats().OriginalChecksCovered;
      return;
    }
    CheckID DId = OrigCtx.idOf(B, Idx);
    if (AvailEnd &&
        anyAsStrongAs(BCtx.universe(), *AvailEnd,
                      BFamily[OrigCtx.universe().familyOf(DId)],
                      D.Check.bound())) {
      ++Report.stats().OriginalChecksCovered;
      return;
    }
    if (intervals().at(B, Idx) == IntervalVerdict::AlwaysPasses) {
      // Interval analysis certifies, independently of the optimizer,
      // that the check could never fire in the first place.
      ++Report.stats().IntervalDischarged;
      ++Report.stats().OriginalChecksCovered;
      return;
    }
    if (loopLimitAlwaysPasses(B, DId)) {
      ++Report.stats().LimitDischarged;
      ++Report.stats().OriginalChecksCovered;
      return;
    }
    AuditFinding F = finding(
        AuditRule::LostCheck, B, Idx, D,
        "no as-strong-or-stronger optimized check is performed on "
        "every path to this original check");
    F.Witness.push_back("check: " + checkStr(D.Check));
    Report.add(std::move(F));
  }

  static constexpr size_t NoTrap = ~size_t(0);
};

} // namespace

void nascent::auditFunctionPair(Function &Original, Function &Optimized,
                                const AuditOptions &Opts,
                                AuditReport &Report) {
  Original.recomputePreds();
  Optimized.recomputePreds();
  std::optional<PairAuditor> A;
  {
    obs::ScopedPhase Stage(Opts.Phases, "original-analyses");
    A.emplace(Original, Optimized, Opts, Report);
  }
  A->run();
}

AuditReport nascent::auditModulePair(Module &Original, Module &Optimized,
                                     const AuditOptions &Opts) {
  AuditReport Report;
  for (Function *F : Original.functions()) {
    Function *O = Optimized.function(F->name());
    if (!O) {
      AuditFinding Missing;
      Missing.Rule = AuditRule::IrCorrespondence;
      Missing.FunctionName = F->name();
      Missing.Scheme = placementSchemeName(Opts.Scheme);
      Missing.Message = "function missing from the optimized module";
      Report.add(std::move(Missing));
      continue;
    }
    auditFunctionPair(*F, *O, Opts, Report);
  }
  for (Function *F : Optimized.functions())
    if (!Original.function(F->name())) {
      AuditFinding Extra;
      Extra.Rule = AuditRule::IrCorrespondence;
      Extra.FunctionName = F->name();
      Extra.Scheme = placementSchemeName(Opts.Scheme);
      Extra.Message = "function absent from the original module";
      Report.add(std::move(Extra));
    }
  return Report;
}

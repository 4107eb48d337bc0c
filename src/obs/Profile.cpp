#include "obs/Profile.h"

#include "ir/Function.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"

using namespace nascent;
using namespace nascent::obs;

void ExecutionProfile::attach(const Module &M) {
  Attached = true;
  Runs = TrappedRuns = 0;
  Funcs.clear();
  Plans.clear();
  FuncIndex.clear();

  for (const Function *F : M.functions()) {
    FuncIndex[F] = Funcs.size();
    FunctionProfile FP;
    Plan P;
    FP.Name = F->name();
    FP.BlockNames.reserve(F->numBlocks());
    for (const auto &BB : *F)
      FP.BlockNames.push_back(BB->name());
    FP.BlockCounts.assign(F->numBlocks(), 0);
    P.ByBlock.resize(F->numBlocks());
    P.SiteAt.resize(F->numBlocks());

    for (uint32_t L = 0; L != F->doLoops().size(); ++L) {
      const DoLoopInfo &DL = F->doLoops()[L];
      LoopProfile LP;
      LP.Preheader = DL.Preheader;
      LP.Header = DL.Header;
      FP.Loops.push_back(std::move(LP));
      if (DL.Exit < F->numBlocks())
        P.ByBlock[DL.Exit].ExitOf.push_back(L);
      if (DL.Preheader < F->numBlocks())
        P.ByBlock[DL.Preheader].PreheaderOf.push_back(L);
      if (DL.BodyEntry < F->numBlocks())
        P.ByBlock[DL.BodyEntry].BodyOf.push_back(L);
    }

    P.ArrayIndex.assign(F->symbols().size(), -1);
    for (SymbolID S = 0; S != F->symbols().size(); ++S) {
      const Symbol &Sym = F->symbols().get(S);
      if (!Sym.isArray())
        continue;
      P.ArrayIndex[S] = static_cast<int32_t>(FP.Arrays.size());
      ArrayProfile AP;
      AP.Name = Sym.Name;
      FP.Arrays.push_back(std::move(AP));
    }

    for (const auto &BB : *F) {
      const auto &Insts = BB->instructions();
      P.SiteAt[BB->id()].assign(Insts.size(), -1);
      for (uint32_t Idx = 0; Idx != Insts.size(); ++Idx) {
        const Instruction &I = Insts[Idx];
        if (!I.isRangeCheck())
          continue;
        P.SiteAt[BB->id()][Idx] = static_cast<int32_t>(FP.Sites.size());
        CheckSiteProfile SP;
        SP.Tag = I.Tag;
        SP.Block = BB->id();
        SP.Index = Idx;
        SP.Conditional = I.Op == Opcode::CondCheck;
        SP.CheckStr = I.Check.str(F->symbols());
        SP.Origin = I.Origin;
        FP.Sites.push_back(std::move(SP));
      }
    }

    Funcs.push_back(std::move(FP));
    Plans.push_back(std::move(P));
  }
}

size_t ExecutionProfile::functionIndex(const Function *F) const {
  auto It = FuncIndex.find(F);
  return It == FuncIndex.end() ? NoFunction : It->second;
}

ProfileFrameState ExecutionProfile::makeFrameState(size_t FnIdx) const {
  ProfileFrameState FS;
  FS.Trips.assign(Funcs[FnIdx].Loops.size(), 0);
  FS.Active.assign(Funcs[FnIdx].Loops.size(), 0);
  return FS;
}

void ExecutionProfile::closeLoopEntry(FunctionProfile &FP, uint32_t L,
                                      ProfileFrameState &FS, bool Partial) {
  LoopProfile &LP = FP.Loops[L];
  saturatingInc(LP.Entries);
  if (Partial)
    saturatingInc(LP.PartialEntries);
  saturatingInc(LP.Iterations, FS.Trips[L]);
  saturatingInc(LP.TripHistogram[FS.Trips[L]]);
  FS.Active[L] = 0;
  FS.Trips[L] = 0;
}

void ExecutionProfile::enterBlock(size_t FnIdx, BlockID B,
                                  ProfileFrameState &FS) {
  FunctionProfile &FP = Funcs[FnIdx];
  saturatingInc(FP.BlockCounts[B]);
  const Plan::Roles &R = Plans[FnIdx].ByBlock[B];
  // A block can close one loop, open the next, and begin a body all at
  // once; apply the roles in lifecycle order.
  for (uint32_t L : R.ExitOf)
    if (FS.Active[L])
      closeLoopEntry(FP, L, FS, /*Partial=*/false);
  for (uint32_t L : R.PreheaderOf) {
    FS.Active[L] = 1;
    FS.Trips[L] = 0;
  }
  for (uint32_t L : R.BodyOf)
    if (FS.Active[L])
      saturatingInc(FS.Trips[L]);
}

int32_t ExecutionProfile::siteIndex(size_t FnIdx, BlockID B,
                                    uint32_t Index) const {
  const std::vector<int32_t> &Sites = Plans[FnIdx].SiteAt[B];
  return Index < Sites.size() ? Sites[Index] : -1;
}

void ExecutionProfile::noteCheck(size_t FnIdx, BlockID B, uint32_t Index,
                                 bool Trapped) {
  int32_t Site = siteIndex(FnIdx, B, Index);
  if (Site < 0)
    return; // check fabricated after attach; not a profiled site
  CheckSiteProfile &SP = Funcs[FnIdx].Sites[Site];
  saturatingInc(SP.Hits);
  if (Trapped)
    saturatingInc(SP.Traps);
}

void ExecutionProfile::noteAccess(size_t FnIdx, SymbolID Array,
                                  bool IsStore) {
  int32_t Idx = arrayIndex(FnIdx, Array);
  if (Idx < 0)
    return;
  ArrayProfile &AP = Funcs[FnIdx].Arrays[Idx];
  saturatingInc(IsStore ? AP.Stores : AP.Loads);
}

void ExecutionProfile::flushFrame(size_t FnIdx, ProfileFrameState &FS) {
  FunctionProfile &FP = Funcs[FnIdx];
  // Entries still open died with the frame (trap, fault, or an in-loop
  // return): record the partial trip count up to the cut.
  for (uint32_t L = 0; L != FS.Active.size(); ++L)
    if (FS.Active[L])
      closeLoopEntry(FP, L, FS, /*Partial=*/true);
}

void ExecutionProfile::noteRun(bool Trapped) {
  saturatingInc(Runs);
  if (Trapped)
    saturatingInc(TrappedRuns);
}

uint64_t ExecutionProfile::dynChecks() const {
  uint64_t N = 0;
  for (const FunctionProfile &FP : Funcs)
    for (const CheckSiteProfile &S : FP.Sites)
      N = saturatingAdd(N, S.Hits);
  return N;
}

uint64_t ExecutionProfile::dynTraps() const {
  uint64_t N = 0;
  for (const FunctionProfile &FP : Funcs)
    for (const CheckSiteProfile &S : FP.Sites)
      N = saturatingAdd(N, S.Traps);
  return N;
}

uint64_t ExecutionProfile::arrayAccesses() const {
  uint64_t N = 0;
  for (const FunctionProfile &FP : Funcs)
    for (const ArrayProfile &A : FP.Arrays)
      N = saturatingAdd(N, saturatingAdd(A.Loads, A.Stores));
  return N;
}

uint64_t ExecutionProfile::residualSites() const {
  uint64_t N = 0;
  for (const FunctionProfile &FP : Funcs)
    N += FP.Sites.size();
  return N;
}

double ExecutionProfile::checksPerAccess() const {
  uint64_t Accesses = arrayAccesses();
  if (Accesses == 0)
    return 0.0;
  return static_cast<double>(dynChecks()) / static_cast<double>(Accesses);
}

bool ExecutionProfile::merge(const ExecutionProfile &O) {
  if (Funcs.size() != O.Funcs.size())
    return false;
  for (size_t F = 0; F != Funcs.size(); ++F) {
    const FunctionProfile &A = Funcs[F], &B = O.Funcs[F];
    if (A.Name != B.Name || A.BlockCounts.size() != B.BlockCounts.size() ||
        A.Loops.size() != B.Loops.size() ||
        A.Arrays.size() != B.Arrays.size() ||
        A.Sites.size() != B.Sites.size())
      return false;
  }
  Runs = saturatingAdd(Runs, O.Runs);
  TrappedRuns = saturatingAdd(TrappedRuns, O.TrappedRuns);
  for (size_t F = 0; F != Funcs.size(); ++F) {
    FunctionProfile &A = Funcs[F];
    const FunctionProfile &B = O.Funcs[F];
    for (size_t I = 0; I != A.BlockCounts.size(); ++I)
      A.BlockCounts[I] = saturatingAdd(A.BlockCounts[I], B.BlockCounts[I]);
    for (size_t I = 0; I != A.Loops.size(); ++I) {
      LoopProfile &LA = A.Loops[I];
      const LoopProfile &LB = B.Loops[I];
      LA.Entries = saturatingAdd(LA.Entries, LB.Entries);
      LA.Iterations = saturatingAdd(LA.Iterations, LB.Iterations);
      LA.PartialEntries = saturatingAdd(LA.PartialEntries, LB.PartialEntries);
      for (const auto &[Trips, Count] : LB.TripHistogram)
        saturatingInc(LA.TripHistogram[Trips], Count);
    }
    for (size_t I = 0; I != A.Arrays.size(); ++I) {
      A.Arrays[I].Loads = saturatingAdd(A.Arrays[I].Loads, B.Arrays[I].Loads);
      A.Arrays[I].Stores =
          saturatingAdd(A.Arrays[I].Stores, B.Arrays[I].Stores);
    }
    for (size_t I = 0; I != A.Sites.size(); ++I) {
      A.Sites[I].Hits = saturatingAdd(A.Sites[I].Hits, B.Sites[I].Hits);
      A.Sites[I].Traps = saturatingAdd(A.Sites[I].Traps, B.Sites[I].Traps);
    }
  }
  return true;
}

namespace {

void writeOrigin(JsonWriter &W, const CheckOrigin &O) {
  W.key("origin").beginObject();
  W.kv("array", O.ArrayName);
  W.kv("dim", O.Dim);
  W.kv("side", O.IsUpper ? "upper" : "lower");
  W.kv("line", O.Loc.Line);
  W.kv("col", O.Loc.Column);
  W.endObject();
}

} // namespace

void ExecutionProfile::writeJson(JsonWriter &W) const {
  W.beginObject();
  W.kv("runs", Runs);
  W.kv("trappedRuns", TrappedRuns);
  W.kv("dynChecks", dynChecks());
  W.kv("dynTraps", dynTraps());
  W.kv("arrayAccesses", arrayAccesses());
  W.kv("residualSites", residualSites());
  W.kv("checksPerAccess", checksPerAccess());
  W.key("functions").beginArray();
  for (const FunctionProfile &FP : Funcs) {
    W.beginObject();
    W.kv("name", FP.Name);
    W.key("blocks").beginArray();
    for (size_t B = 0; B != FP.BlockCounts.size(); ++B) {
      W.beginObject();
      W.kv("id", static_cast<uint64_t>(B));
      W.kv("block", FP.BlockNames[B]);
      W.kv("count", FP.BlockCounts[B]);
      W.endObject();
    }
    W.endArray();
    W.key("loops").beginArray();
    for (const LoopProfile &LP : FP.Loops) {
      W.beginObject();
      W.kv("preheader", LP.Preheader);
      W.kv("header", LP.Header);
      W.kv("entries", LP.Entries);
      W.kv("iterations", LP.Iterations);
      W.kv("partialEntries", LP.PartialEntries);
      W.key("tripCounts").beginArray();
      for (const auto &[Trips, Count] : LP.TripHistogram) {
        W.beginObject();
        W.kv("trips", Trips);
        W.kv("count", Count);
        W.endObject();
      }
      W.endArray();
      W.endObject();
    }
    W.endArray();
    W.key("arrays").beginArray();
    for (const ArrayProfile &A : FP.Arrays) {
      W.beginObject();
      W.kv("array", A.Name);
      W.kv("loads", A.Loads);
      W.kv("stores", A.Stores);
      W.endObject();
    }
    W.endArray();
    W.key("checkSites").beginArray();
    for (const CheckSiteProfile &S : FP.Sites) {
      W.beginObject();
      W.kv("tag", S.Tag);
      W.kv("block", S.Block);
      W.kv("index", S.Index);
      W.kv("kind", S.Conditional ? "cond-check" : "check");
      W.kv("check", S.CheckStr);
      writeOrigin(W, S.Origin);
      W.kv("hits", S.Hits);
      W.kv("traps", S.Traps);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string ExecutionProfile::toJson() const {
  JsonWriter W;
  writeJson(W);
  return W.take();
}

std::string ExecutionProfile::toEnvelopeJson() const {
  JsonWriter W;
  W.beginObject();
  W.kv("schemaVersion", BenchSchemaVersion);
  W.kv("profileVersion", ProfileVersion);
  W.key("profile");
  writeJson(W);
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Schema validation
//===----------------------------------------------------------------------===//

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

bool requireNumbers(const JsonValue &O, const std::string &At,
                    std::initializer_list<const char *> Keys,
                    std::string *Err) {
  for (const char *Key : Keys) {
    const JsonValue *F = O.get(Key);
    if (!F || !F->isNumber())
      return fail(Err,
                  At + " missing numeric field '" + std::string(Key) + "'");
  }
  return true;
}

bool requireStrings(const JsonValue &O, const std::string &At,
                    std::initializer_list<const char *> Keys,
                    std::string *Err) {
  for (const char *Key : Keys) {
    const JsonValue *F = O.get(Key);
    if (!F || !F->isString())
      return fail(Err,
                  At + " missing string field '" + std::string(Key) + "'");
  }
  return true;
}

const JsonValue *requireArray(const JsonValue &O, const std::string &At,
                              const char *Key, std::string *Err) {
  const JsonValue *F = O.get(Key);
  if (!F || !F->isArray()) {
    fail(Err, At + " missing array field '" + std::string(Key) + "'");
    return nullptr;
  }
  return F;
}

/// Validates one "profile" object and its internal consistency: the
/// advertised totals must equal the sums over the per-function structure.
bool validateProfileObject(const JsonValue &P, const std::string &At,
                           std::string *Err) {
  if (!P.isObject())
    return fail(Err, At + " is not an object");
  if (!requireNumbers(P, At,
                      {"runs", "trappedRuns", "dynChecks", "dynTraps",
                       "arrayAccesses", "residualSites", "checksPerAccess"},
                      Err))
    return false;
  const JsonValue *Fns = requireArray(P, At, "functions", Err);
  if (!Fns)
    return false;

  double SumHits = 0, SumTraps = 0, SumAccesses = 0, SumSites = 0;
  for (size_t I = 0; I != Fns->Array.size(); ++I) {
    const JsonValue &F = Fns->Array[I];
    std::string FAt = At + ".functions[" + std::to_string(I) + "]";
    if (!F.isObject())
      return fail(Err, FAt + " is not an object");
    if (!requireStrings(F, FAt, {"name"}, Err))
      return false;
    const JsonValue *Blocks = requireArray(F, FAt, "blocks", Err);
    const JsonValue *Loops = requireArray(F, FAt, "loops", Err);
    const JsonValue *Arrays = requireArray(F, FAt, "arrays", Err);
    const JsonValue *Sites = requireArray(F, FAt, "checkSites", Err);
    if (!Blocks || !Loops || !Arrays || !Sites)
      return false;
    for (size_t B = 0; B != Blocks->Array.size(); ++B) {
      std::string BAt = FAt + ".blocks[" + std::to_string(B) + "]";
      if (!requireNumbers(Blocks->Array[B], BAt, {"id", "count"}, Err) ||
          !requireStrings(Blocks->Array[B], BAt, {"block"}, Err))
        return false;
    }
    for (size_t L = 0; L != Loops->Array.size(); ++L) {
      std::string LAt = FAt + ".loops[" + std::to_string(L) + "]";
      if (!requireNumbers(Loops->Array[L], LAt,
                          {"preheader", "header", "entries", "iterations",
                           "partialEntries"},
                          Err))
        return false;
      const JsonValue *Trips = requireArray(Loops->Array[L], LAt,
                                            "tripCounts", Err);
      if (!Trips)
        return false;
      double Entries = 0;
      for (size_t T = 0; T != Trips->Array.size(); ++T) {
        std::string TAt = LAt + ".tripCounts[" + std::to_string(T) + "]";
        if (!requireNumbers(Trips->Array[T], TAt, {"trips", "count"}, Err))
          return false;
        Entries += Trips->Array[T].get("count")->Number;
      }
      if (Entries != Loops->Array[L].get("entries")->Number)
        return fail(Err, LAt + " trip histogram does not sum to 'entries'");
    }
    for (size_t A = 0; A != Arrays->Array.size(); ++A) {
      std::string AAt = FAt + ".arrays[" + std::to_string(A) + "]";
      if (!requireNumbers(Arrays->Array[A], AAt, {"loads", "stores"}, Err) ||
          !requireStrings(Arrays->Array[A], AAt, {"array"}, Err))
        return false;
      SumAccesses += Arrays->Array[A].get("loads")->Number +
                     Arrays->Array[A].get("stores")->Number;
    }
    for (size_t S = 0; S != Sites->Array.size(); ++S) {
      std::string SAt = FAt + ".checkSites[" + std::to_string(S) + "]";
      const JsonValue &Site = Sites->Array[S];
      if (!requireNumbers(Site, SAt, {"tag", "block", "index", "hits",
                                      "traps"},
                          Err) ||
          !requireStrings(Site, SAt, {"kind", "check"}, Err))
        return false;
      const JsonValue *Origin = Site.get("origin");
      if (!Origin || !Origin->isObject())
        return fail(Err, SAt + " missing object field 'origin'");
      SumHits += Site.get("hits")->Number;
      SumTraps += Site.get("traps")->Number;
      ++SumSites;
    }
  }
  if (SumHits != P.get("dynChecks")->Number)
    return fail(Err, At + " 'dynChecks' does not equal the sum of site hits");
  if (SumTraps != P.get("dynTraps")->Number)
    return fail(Err, At + " 'dynTraps' does not equal the sum of site traps");
  if (SumAccesses != P.get("arrayAccesses")->Number)
    return fail(Err,
                At + " 'arrayAccesses' does not equal the sum of array "
                     "loads and stores");
  if (SumSites != P.get("residualSites")->Number)
    return fail(Err,
                At + " 'residualSites' does not equal the number of check "
                     "sites");
  return true;
}

/// Validates one profdiff per-program comparison object.
bool validateProgramObject(const JsonValue &P, const std::string &At,
                           std::string *Err) {
  if (!P.isObject())
    return fail(Err, At + " is not an object");
  if (!requireStrings(P, At, {"name"}, Err))
    return false;
  const JsonValue *Schemes = requireArray(P, At, "schemes", Err);
  if (!Schemes)
    return false;
  if (Schemes->Array.empty())
    return fail(Err, At + " has an empty 'schemes' array");
  for (size_t S = 0; S != Schemes->Array.size(); ++S) {
    std::string SAt = At + ".schemes[" + std::to_string(S) + "]";
    if (!requireStrings(Schemes->Array[S], SAt, {"scheme"}, Err) ||
        !requireNumbers(Schemes->Array[S], SAt,
                        {"dynChecks", "dynTraps", "arrayAccesses",
                         "residualSites", "checksPerAccess"},
                        Err))
      return false;
  }
  const JsonValue *Sites = requireArray(P, At, "hotSites", Err);
  if (!Sites)
    return false;
  for (size_t S = 0; S != Sites->Array.size(); ++S) {
    std::string SAt = At + ".hotSites[" + std::to_string(S) + "]";
    if (!requireStrings(Sites->Array[S], SAt, {"site"}, Err) ||
        !requireNumbers(Sites->Array[S], SAt,
                        {"tag", "dynCount", "pctOfAccesses"}, Err))
      return false;
    if (!requireArray(Sites->Array[S], SAt, "eliminatedBy", Err))
      return false;
  }
  return true;
}

} // namespace

bool obs::validateProfileDocument(const JsonValue &Doc, std::string *Err) {
  if (!Doc.isObject())
    return fail(Err, "document is not a JSON object");

  const JsonValue *Version = Doc.get("schemaVersion");
  if (!Version || !Version->isNumber())
    return fail(Err, "missing numeric field 'schemaVersion'");
  if (Version->Number != static_cast<double>(BenchSchemaVersion))
    return fail(Err, "unknown schemaVersion " +
                         std::to_string(Version->Number) + " (expected " +
                         std::to_string(BenchSchemaVersion) + ")");
  const JsonValue *PVersion = Doc.get("profileVersion");
  if (!PVersion || !PVersion->isNumber())
    return fail(Err, "missing numeric field 'profileVersion'");
  if (PVersion->Number != static_cast<double>(ProfileVersion))
    return fail(Err, "unknown profileVersion " +
                         std::to_string(PVersion->Number) + " (expected " +
                         std::to_string(ProfileVersion) + ")");

  if (const JsonValue *P = Doc.get("profile"))
    return validateProfileObject(*P, "profile", Err);

  if (const JsonValue *Programs = Doc.get("programs")) {
    if (!Programs->isArray())
      return fail(Err, "'programs' is not an array");
    if (Programs->Array.empty())
      return fail(Err, "'programs' array is empty");
    for (size_t I = 0; I != Programs->Array.size(); ++I)
      if (!validateProgramObject(Programs->Array[I],
                                 "programs[" + std::to_string(I) + "]", Err))
        return false;
    return true;
  }

  return fail(Err, "document has neither 'profile' nor 'programs'");
}

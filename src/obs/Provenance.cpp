#include "obs/Provenance.h"

#include "ir/Function.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace nascent;
using namespace nascent::obs;

const char *obs::lifecycleKindName(LifecycleKind K) {
  static const char *const Names[] = {
      "inserted",   "strengthened", "moved",       "subsumed-by",
      "eliminated", "trapped",      "residualized"};
  return Names[static_cast<size_t>(K)];
}

const char *obs::lifecyclePassName(LifecyclePass P) {
  static const char *const Names[] = {
      "Lowering",         "INXSynthesis",       "CheckStrengthening",
      "LazyCodeMotion",   "PreheaderInsertion", "Elimination",
      "IntervalAnalysis", "Unreachable",        "Pipeline"};
  return Names[static_cast<size_t>(P)];
}

namespace {

const char *const JustificationTexts[] = {
#define NASCENT_X(Id, Text) Text,
    NASCENT_JUSTIFICATIONS(NASCENT_X)
#undef NASCENT_X
};

const CheckOrigin NoOrigin;

} // namespace

uint32_t ProvenanceRecorder::addSnapshot(const Instruction &I) {
  const auto &Terms = I.Check.expr().terms();
  Snapshots.push_back({static_cast<uint32_t>(TermPool.size()),
                       static_cast<uint32_t>(Terms.size()), I.Check.bound(),
                       I.Origin});
  TermPool.insert(TermPool.end(), Terms.begin(), Terms.end());
  return static_cast<uint32_t>(Snapshots.size() - 1);
}

std::optional<CheckExpr> ProvenanceRecorder::payload(uint32_t Index) const {
  if (Index == NoSnapshot)
    return std::nullopt;
  const CheckSnapshot &S = Snapshots[Index];
  LinearExpr E;
  for (uint32_t T = S.FirstTerm; T != S.FirstTerm + S.NumTerms; ++T)
    E.addTerm(TermPool[T].first, TermPool[T].second);
  return CheckExpr(std::move(E), S.Bound);
}

void ProvenanceRecorder::record(LifecycleKind Kind, LifecyclePass Pass,
                                const Function &F, BlockID B,
                                const Instruction &I, JustificationId Why,
                                CheckTag Other) {
  LifecycleEvent E;
  E.Tag = I.Tag;
  E.Kind = Kind;
  E.Pass = Pass;
  E.Justification = Why;
  E.Block = B;
  E.Fn = &F;
  E.OtherTag = Other;
  auto CurrentOfTag = [&](CheckTag T) {
    return T < CurrentOf.size() ? CurrentOf[T] : NoSnapshot;
  };
  switch (Kind) {
  case LifecycleKind::Strengthened:
  case LifecycleKind::Moved:
    E.Edge = CurrentOfTag(I.Tag);
    [[fallthrough]];
  case LifecycleKind::Inserted:
    E.Check = addSnapshot(I);
    if (I.Tag >= CurrentOf.size())
      CurrentOf.resize(I.Tag + 1, NoSnapshot);
    CurrentOf[I.Tag] = E.Check;
    break;
  default:
    E.Check = CurrentOfTag(I.Tag);
    if (Why == JustificationId::CoveredEarlierInBlock && Other != NoCheckTag)
      E.Edge = CurrentOfTag(Other);
    break;
  }
  record(E);
}

void ProvenanceRecorder::record(LifecycleEvent E) {
  E.Seq = static_cast<uint32_t>(All.size());
  All.push_back(E);
}

void ProvenanceRecorder::reserve(size_t Events, size_t NewSnapshots,
                                 size_t Terms, CheckTag MaxTag) {
  All.reserve(All.size() + Events);
  Snapshots.reserve(Snapshots.size() + NewSnapshots);
  TermPool.reserve(TermPool.size() + Terms);
  if (MaxTag >= CurrentOf.size())
    CurrentOf.resize(MaxTag + 1, NoSnapshot);
}

size_t ProvenanceRecorder::count(LifecycleKind K,
                                 std::optional<LifecyclePass> Pass) const {
  size_t N = 0;
  for (const LifecycleEvent &E : All)
    if (E.Kind == K && (!Pass || E.Pass == *Pass))
      ++N;
  return N;
}

std::vector<std::vector<size_t>> ProvenanceRecorder::timelines() const {
  std::vector<std::vector<size_t>> Out;
  std::unordered_map<CheckTag, size_t> Slot;
  for (size_t I = 0; I != All.size(); ++I) {
    auto [It, New] = Slot.try_emplace(All[I].Tag, Out.size());
    if (New)
      Out.emplace_back();
    Out[It->second].push_back(I);
  }
  return Out;
}

const LifecycleEvent *ProvenanceRecorder::lastEventOf(CheckTag Tag) const {
  for (size_t I = All.size(); I-- > 0;)
    if (All[I].Tag == Tag)
      return &All[I];
  return nullptr;
}

std::vector<size_t> ProvenanceRecorder::timelineOf(CheckTag Tag) const {
  std::vector<size_t> Out;
  for (size_t I = 0; I != All.size(); ++I)
    if (All[I].Tag == Tag)
      Out.push_back(I);
  return Out;
}

std::string ProvenanceRecorder::functionName(const LifecycleEvent &E) const {
  return E.Fn ? E.Fn->name() : std::string();
}

std::string ProvenanceRecorder::blockName(const LifecycleEvent &E) const {
  return E.Fn && E.Block < E.Fn->numBlocks() ? E.Fn->block(E.Block)->name()
                                             : std::string();
}

std::string ProvenanceRecorder::checkStr(const LifecycleEvent &E) const {
  std::optional<CheckExpr> C = payload(E.Check);
  return C && E.Fn ? C->str(E.Fn->symbols()) : std::string();
}

std::string ProvenanceRecorder::familyStr(const LifecycleEvent &E) const {
  std::optional<CheckExpr> C = payload(E.Check);
  return C && E.Fn ? C->expr().str(E.Fn->symbols()) : std::string();
}

std::string ProvenanceRecorder::edgeStr(const LifecycleEvent &E) const {
  std::optional<CheckExpr> C = payload(E.Edge);
  return C && E.Fn ? C->str(E.Fn->symbols()) : std::string();
}

std::string
ProvenanceRecorder::justificationText(const LifecycleEvent &E) const {
  const char *Text = JustificationTexts[static_cast<size_t>(E.Justification)];
  if (E.Justification != JustificationId::BoundTightened)
    return Text;
  return "bound tightened from " +
         (E.Edge != NoSnapshot ? std::to_string(Snapshots[E.Edge].Bound)
                               : std::string("?")) +
         " to " + std::to_string(bound(E)) + Text;
}

int64_t ProvenanceRecorder::bound(const LifecycleEvent &E) const {
  return E.Check != NoSnapshot ? Snapshots[E.Check].Bound : 0;
}

const CheckOrigin &ProvenanceRecorder::origin(const LifecycleEvent &E) const {
  return E.Check != NoSnapshot ? Snapshots[E.Check].Origin : NoOrigin;
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

void ProvenanceRecorder::writeJson(JsonWriter &W) const {
  W.beginObject();
  W.key("events").beginArray();
  for (const LifecycleEvent &E : All) {
    W.beginObject();
    W.kv("seq", E.Seq);
    W.kv("tag", E.Tag);
    W.kv("kind", lifecycleKindName(E.Kind));
    W.kv("pass", lifecyclePassName(E.Pass));
    W.kv("function", functionName(E));
    W.kv("block", blockName(E));
    W.kv("check", checkStr(E));
    W.kv("bound", bound(E));
    writeOrigin(W, origin(E));
    W.kv("justification", justificationText(E));
    if (E.OtherTag != NoCheckTag)
      W.kv("otherTag", E.OtherTag);
    if (E.Edge != NoSnapshot)
      W.kv("edge", edgeStr(E));
    W.endObject();
  }
  W.endArray();

  W.key("checks").beginArray();
  for (const std::vector<size_t> &Chain : timelines()) {
    const LifecycleEvent &First = All[Chain.front()];
    W.beginObject();
    W.kv("tag", First.Tag);
    W.kv("function", functionName(First));
    W.kv("terminal", lifecycleKindName(All[Chain.back()].Kind));
    W.key("events").beginArray();
    for (size_t I : Chain)
      W.value(static_cast<uint64_t>(All[I].Seq));
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string ProvenanceRecorder::toJson() const {
  JsonWriter W;
  writeJson(W);
  return W.take();
}

namespace {

std::string dotEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

std::string ProvenanceRecorder::toDot() const {
  std::ostringstream OS;
  OS << "digraph check_provenance {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, fontname=\"monospace\"];\n";
  for (const std::vector<size_t> &Chain : timelines()) {
    const LifecycleEvent &Last = All[Chain.back()];
    OS << "  t" << Last.Tag << " [label=\"t" << Last.Tag << ": "
       << dotEscape(checkStr(Last)) << "\\n" << functionName(Last) << " ["
       << lifecycleKindName(Last.Kind) << "]\"";
    if (Last.Kind == LifecycleKind::Residualized)
      OS << ", style=bold";
    else if (Last.Kind == LifecycleKind::Trapped)
      OS << ", color=red";
    OS << "];\n";
  }
  for (const LifecycleEvent &E : All) {
    if (E.Kind != LifecycleKind::SubsumedBy || E.OtherTag == NoCheckTag)
      continue;
    OS << "  t" << E.OtherTag << " -> t" << E.Tag << " [label=\""
       << dotEscape(lifecyclePassName(E.Pass)) << "\"];\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string
ProvenanceRecorder::explainChain(const std::vector<size_t> &Chain) const {
  std::ostringstream OS;
  const LifecycleEvent &First = All[Chain.front()];
  const std::string FirstStr = checkStr(First);
  const CheckOrigin &O = origin(First);
  OS << "check t" << First.Tag << " " << FirstStr;
  if (!O.ArrayName.empty())
    OS << " (array '" << O.ArrayName << "' dim " << O.Dim << " "
       << (O.IsUpper ? "upper" : "lower") << " bound)";
  OS << " at " << O.Loc.str() << ":\n";
  for (size_t I : Chain) {
    const LifecycleEvent &E = All[I];
    OS << "  #" << E.Seq << " [" << lifecyclePassName(E.Pass) << "] "
       << lifecycleKindName(E.Kind) << " in " << functionName(E) << ":"
       << blockName(E);
    std::string Edge = edgeStr(E);
    if (E.Kind == LifecycleKind::SubsumedBy) {
      if (E.OtherTag != NoCheckTag)
        OS << " by t" << E.OtherTag;
      if (!Edge.empty())
        OS << " via " << Edge;
    } else if (!Edge.empty()) {
      OS << " (was " << Edge << ")";
    }
    if (E.Kind == LifecycleKind::Strengthened ||
        E.Kind == LifecycleKind::Moved) {
      std::string Now = checkStr(E);
      if (Now != FirstStr)
        OS << " now " << Now;
    }
    std::string Why = justificationText(E);
    if (!Why.empty())
      OS << ": " << Why;
    OS << "\n";
  }
  return OS.str();
}

std::string ProvenanceRecorder::explainTag(CheckTag Tag) const {
  std::vector<size_t> Chain = timelineOf(Tag);
  return Chain.empty() ? std::string() : explainChain(Chain);
}

std::string ProvenanceRecorder::explainSite(unsigned Line,
                                            unsigned Column) const {
  std::string Out;
  for (const std::vector<size_t> &Chain : timelines()) {
    const CheckOrigin &O = origin(All[Chain.front()]);
    if (O.Loc.Line != Line)
      continue;
    if (Column != 0 && O.Loc.Column != Column)
      continue;
    Out += explainChain(Chain);
  }
  return Out;
}

std::vector<std::string> ProvenanceRecorder::validate() const {
  std::vector<std::string> Problems;
  std::vector<std::vector<size_t>> Chains = timelines();
  std::unordered_set<CheckTag> Known;
  for (const std::vector<size_t> &Chain : Chains)
    Known.insert(All[Chain.front()].Tag);
  for (const LifecycleEvent &E : All) {
    if (E.Tag == NoCheckTag)
      Problems.push_back("event #" + std::to_string(E.Seq) +
                         " has no check tag");
    if (E.OtherTag != NoCheckTag && !Known.count(E.OtherTag))
      Problems.push_back("event #" + std::to_string(E.Seq) +
                         " references unrecorded tag t" +
                         std::to_string(E.OtherTag));
  }
  for (const std::vector<size_t> &Chain : Chains) {
    CheckTag Tag = All[Chain.front()].Tag;
    for (size_t I = 0; I + 1 < Chain.size(); ++I)
      if (isTerminalLifecycleKind(All[Chain[I]].Kind))
        Problems.push_back("check t" + std::to_string(Tag) +
                           " has events after terminal state " +
                           lifecycleKindName(All[Chain[I]].Kind));
    if (!isTerminalLifecycleKind(All[Chain.back()].Kind))
      Problems.push_back("check t" + std::to_string(Tag) +
                         " lifecycle ends in non-terminal state " +
                         lifecycleKindName(All[Chain.back()].Kind));
  }
  return Problems;
}

namespace {

/// Calls \p Visit(F, Block, I) for every tagged range check of \p Fns.
template <typename Fn>
void forEachTaggedCheck(const std::vector<const Function *> &Fns,
                        Fn &&Visit) {
  for (const Function *F : Fns)
    for (const auto &BB : *F)
      for (const Instruction &I : BB->instructions())
        if (I.isRangeCheck() && I.Tag != NoCheckTag)
          Visit(*F, BB->id(), I);
}

} // namespace

void obs::recordInsertedChecks(const Module &M, ProvenanceRecorder &PR) {
  const std::vector<const Function *> Fns = M.functions();
  size_t Checks = 0, Terms = 0;
  CheckTag MaxTag = NoCheckTag;
  forEachTaggedCheck(Fns, [&](const Function &, BlockID,
                              const Instruction &I) {
    ++Checks;
    Terms += I.Check.expr().terms().size();
    MaxTag = std::max(MaxTag, I.Tag);
  });
  PR.reserve(2 * Checks, Checks, Terms, MaxTag);
  forEachTaggedCheck(Fns, [&](const Function &F, BlockID B,
                              const Instruction &I) {
    PR.record(LifecycleKind::Inserted, LifecyclePass::Lowering, F, B, I,
              JustificationId::NaiveCheck);
  });
}

void obs::recordResidualChecks(const Module &M, ProvenanceRecorder &PR) {
  const std::vector<const Function *> Fns = M.functions();
  size_t Checks = 0;
  forEachTaggedCheck(
      Fns, [&](const Function &, BlockID, const Instruction &) { ++Checks; });
  PR.reserve(Checks, 0, 0, NoCheckTag);
  forEachTaggedCheck(Fns, [&](const Function &F, BlockID B,
                              const Instruction &I) {
    PR.record(LifecycleKind::Residualized, LifecyclePass::Pipeline, F, B, I,
              I.Op == Opcode::CondCheck ? JustificationId::CondCheckSurvived
                                        : JustificationId::CheckSurvived);
  });
}

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

bool knownKind(const std::string &Name, bool *Terminal = nullptr) {
  for (auto K = LifecycleKind::Inserted; K <= LifecycleKind::Residualized;
       K = static_cast<LifecycleKind>(static_cast<int>(K) + 1))
    if (Name == lifecycleKindName(K)) {
      if (Terminal)
        *Terminal = isTerminalLifecycleKind(K);
      return true;
    }
  return false;
}

} // namespace

bool obs::validateProvenanceDocument(const JsonValue &Doc,
                                     std::string *Err) {
  if (!Doc.isObject())
    return fail(Err, "document is not a JSON object");

  const JsonValue *Version = Doc.get("schemaVersion");
  if (!Version || !Version->isNumber())
    return fail(Err, "missing numeric field 'schemaVersion'");
  if (Version->Number != static_cast<double>(BenchSchemaVersion))
    return fail(Err, "unknown schemaVersion " +
                         std::to_string(Version->Number) + " (expected " +
                         std::to_string(BenchSchemaVersion) + ")");

  const JsonValue *Prov = Doc.get("provenance");
  if (!Prov || !Prov->isObject())
    return fail(Err, "missing object field 'provenance'");

  const JsonValue *Events = Prov->get("events");
  if (!Events || !Events->isArray())
    return fail(Err, "provenance missing array field 'events'");

  std::set<double> Tags;
  for (size_t I = 0; I != Events->Array.size(); ++I) {
    const JsonValue &E = Events->Array[I];
    std::string At = "events[" + std::to_string(I) + "]";
    if (!E.isObject())
      return fail(Err, At + " is not an object");
    for (const char *Key : {"seq", "tag", "bound"}) {
      const JsonValue *F = E.get(Key);
      if (!F || !F->isNumber())
        return fail(Err,
                    At + " missing numeric field '" + std::string(Key) + "'");
    }
    for (const char *Key :
         {"kind", "pass", "function", "block", "check", "justification"}) {
      const JsonValue *F = E.get(Key);
      if (!F || !F->isString())
        return fail(Err,
                    At + " missing string field '" + std::string(Key) + "'");
    }
    if (!knownKind(E.get("kind")->String))
      return fail(Err, At + " has unknown kind '" + E.get("kind")->String +
                           "'");
    const JsonValue *Origin = E.get("origin");
    if (!Origin || !Origin->isObject())
      return fail(Err, At + " missing object field 'origin'");
    Tags.insert(E.get("tag")->Number);
  }
  // Dangling-reference check: every otherTag must name a recorded check.
  for (size_t I = 0; I != Events->Array.size(); ++I) {
    const JsonValue *Other = Events->Array[I].get("otherTag");
    if (!Other)
      continue;
    if (!Other->isNumber())
      return fail(Err, "events[" + std::to_string(I) +
                           "].otherTag is not a number");
    if (!Tags.count(Other->Number))
      return fail(Err, "events[" + std::to_string(I) +
                           "] references dangling check tag " +
                           std::to_string(Other->Number));
  }

  const JsonValue *Checks = Prov->get("checks");
  if (!Checks || !Checks->isArray())
    return fail(Err, "provenance missing array field 'checks'");
  for (size_t I = 0; I != Checks->Array.size(); ++I) {
    const JsonValue &C = Checks->Array[I];
    std::string At = "checks[" + std::to_string(I) + "]";
    if (!C.isObject())
      return fail(Err, At + " is not an object");
    const JsonValue *Tag = C.get("tag");
    if (!Tag || !Tag->isNumber())
      return fail(Err, At + " missing numeric field 'tag'");
    if (!Tags.count(Tag->Number))
      return fail(Err, At + " names dangling check tag " +
                           std::to_string(Tag->Number));
    const JsonValue *Terminal = C.get("terminal");
    if (!Terminal || !Terminal->isString())
      return fail(Err, At + " missing string field 'terminal'");
    bool IsTerminal = false;
    if (!knownKind(Terminal->String, &IsTerminal) || !IsTerminal)
      return fail(Err, At + " terminal state '" + Terminal->String +
                           "' is not a terminal lifecycle kind");
    const JsonValue *Chain = C.get("events");
    if (!Chain || !Chain->isArray() || Chain->Array.empty())
      return fail(Err, At + " missing non-empty array field 'events'");
    for (const JsonValue &Ref : Chain->Array)
      if (!Ref.isNumber() ||
          Ref.Number >= static_cast<double>(Events->Array.size()))
        return fail(Err, At + " event reference out of range");
  }
  return true;
}

#include "obs/Remarks.h"

#include "obs/Json.h"
#include "obs/Profile.h"
#include "obs/Provenance.h"

#include <map>

using namespace nascent;
using namespace nascent::obs;

const char *obs::remarkKindName(RemarkKind K) {
  static const char *const Names[] = {
      "eliminated",        "strengthened",        "lcm-inserted",
      "cond-inserted",     "rehoisted",           "compile-time-deleted",
      "compile-time-trap", "interval-eliminated", "residual"};
  return Names[static_cast<size_t>(K)];
}

bool RemarkCollector::setFilter(const std::string &FilterRegex,
                                std::string *Err) {
  if (FilterRegex.empty()) {
    Filter.reset();
    return true;
  }
  try {
    Filter.emplace(FilterRegex);
  } catch (const std::regex_error &E) {
    if (Err)
      *Err = E.what();
    return false;
  }
  return true;
}

void RemarkCollector::emit(Remark R) {
  if (Filter && !std::regex_search(R.FamilyStr, *Filter) &&
      !std::regex_search(R.Origin.ArrayName, *Filter))
    return;
  All.push_back(std::move(R));
}

size_t RemarkCollector::count(RemarkKind K) const {
  size_t N = 0;
  for (const Remark &R : All)
    if (R.Kind == K)
      ++N;
  return N;
}

void RemarkCollector::renderText(std::ostream &OS) const {
  for (const Remark &R : All) {
    OS << "remark: " << R.Function << ":" << R.Block << ": [" << R.Pass
       << "] " << remarkKindName(R.Kind) << " " << R.CheckStr;
    if (!R.Origin.ArrayName.empty())
      OS << " (array '" << R.Origin.ArrayName << "' dim " << R.Origin.Dim
         << " " << (R.Origin.IsUpper ? "upper" : "lower") << " bound)";
    if (!R.Justification.empty())
      OS << ": " << R.Justification;
    if (R.HasDynCount)
      OS << " [executed " << R.DynCount << " times]";
    OS << "\n";
  }
}

void RemarkCollector::writeJson(JsonWriter &W) const {
  W.beginArray();
  for (const Remark &R : All) {
    W.beginObject();
    W.kv("kind", remarkKindName(R.Kind));
    W.kv("pass", R.Pass);
    W.kv("function", R.Function);
    W.kv("block", R.Block);
    W.kv("check", R.CheckStr);
    W.kv("family", R.FamilyStr);
    W.kv("bound", R.Bound);
    if (!R.Origin.ArrayName.empty()) {
      W.key("origin").beginObject();
      W.kv("array", R.Origin.ArrayName);
      W.kv("dim", R.Origin.Dim);
      W.kv("side", R.Origin.IsUpper ? "upper" : "lower");
      W.endObject();
    }
    W.kv("justification", R.Justification);
    if (R.HasDynCount)
      W.kv("dynCount", R.DynCount);
    W.endObject();
  }
  W.endArray();
}

std::string RemarkCollector::toJson() const {
  JsonWriter W;
  writeJson(W);
  return W.take();
}

namespace {

/// The (event kind, pass) -> remark kind table; a null pass matches any.
const struct {
  LifecycleKind Kind;
  std::optional<LifecyclePass> Pass;
  RemarkKind Remark;
} DecisionRemarks[] = {
    {LifecycleKind::SubsumedBy, LifecyclePass::Elimination,
     RemarkKind::Eliminated},
    {LifecycleKind::Strengthened, LifecyclePass::CheckStrengthening,
     RemarkKind::Strengthened},
    {LifecycleKind::Inserted, LifecyclePass::LazyCodeMotion,
     RemarkKind::LcmInserted},
    {LifecycleKind::Inserted, LifecyclePass::PreheaderInsertion,
     RemarkKind::CondInserted},
    {LifecycleKind::Moved, LifecyclePass::PreheaderInsertion,
     RemarkKind::Rehoisted},
    {LifecycleKind::Eliminated, LifecyclePass::Elimination,
     RemarkKind::CompileTimeDeleted},
    {LifecycleKind::Trapped, std::nullopt, RemarkKind::CompileTimeTrap},
    {LifecycleKind::Eliminated, LifecyclePass::IntervalAnalysis,
     RemarkKind::IntervalEliminated},
};

Remark remarkFromEvent(const ProvenanceRecorder &PR, const LifecycleEvent &E,
                       RemarkKind Kind) {
  Remark R;
  R.Kind = Kind;
  R.Pass = lifecyclePassName(E.Pass);
  R.Function = PR.functionName(E);
  R.Block = PR.blockName(E);
  R.CheckStr = PR.checkStr(E);
  R.FamilyStr = PR.familyStr(E);
  R.Bound = PR.bound(E);
  R.Origin = PR.origin(E);
  R.Justification = PR.justificationText(E);
  return R;
}

} // namespace

std::optional<RemarkKind> obs::remarkKindFor(const LifecycleEvent &E) {
  for (const auto &Row : DecisionRemarks)
    if (Row.Kind == E.Kind && (!Row.Pass || E.Pass == *Row.Pass))
      return Row.Remark;
  return std::nullopt;
}

void obs::collectDecisionRemarks(const ProvenanceRecorder &PR,
                                 RemarkCollector &RC) {
  for (const LifecycleEvent &E : PR.events())
    if (std::optional<RemarkKind> Kind = remarkKindFor(E))
      RC.emit(remarkFromEvent(PR, E, *Kind));
}

void obs::emitResidualCheckRemarks(const ProvenanceRecorder &PR,
                                   const ExecutionProfile &Profile,
                                   RemarkCollector &RC) {
  std::map<CheckTag, uint64_t> HitsByTag;
  for (const FunctionProfile &FP : Profile.functions())
    for (const CheckSiteProfile &S : FP.Sites)
      HitsByTag[S.Tag] = S.Hits;
  for (const LifecycleEvent &E : PR.events()) {
    if (E.Kind != LifecycleKind::Residualized)
      continue;
    Remark R = remarkFromEvent(PR, E, RemarkKind::Residual);
    R.Pass = "Interpreter";
    auto It = HitsByTag.find(E.Tag);
    R.DynCount = It == HitsByTag.end() ? 0 : It->second;
    R.HasDynCount = true;
    RC.emit(std::move(R));
  }
}

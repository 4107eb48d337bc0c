#include "obs/BenchDiff.h"

#include "obs/BenchSchema.h"
#include "obs/Json.h"
#include "obs/Sampling.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace nascent;
using namespace nascent::obs;

namespace {

/// The discriminator fields a table-harness run element may carry, in the
/// order they join the metric key.
constexpr const char *RunDiscriminators[] = {"source", "scheme", "config",
                                             "impl"};

std::string runKeyPrefix(const JsonValue &Elem) {
  std::string Prefix;
  for (const char *Field : RunDiscriminators)
    if (const JsonValue *V = Elem.get(Field); V && V->isString()) {
      Prefix += V->String;
      Prefix += '/';
    }
  return Prefix;
}

double timeUnitSeconds(const JsonValue &Entry) {
  const JsonValue *Unit = Entry.get("time_unit");
  if (!Unit || !Unit->isString())
    return 1e-9; // google-benchmark's default unit
  if (Unit->String == "ns")
    return 1e-9;
  if (Unit->String == "us")
    return 1e-6;
  if (Unit->String == "ms")
    return 1e-3;
  return 1.0;
}

void extractTableRun(const JsonValue &Elem, std::vector<BenchMetric> &Out) {
  const JsonValue *Run = Elem.get("run");
  if (!Run || !Run->isObject())
    return;
  std::string Prefix = runKeyPrefix(Elem);
  if (const JsonValue *P = Run->get("program"); P && P->isString()) {
    Prefix += P->String;
    Prefix += '/';
  }

  for (const char *Count : {"dynChecks", "dynInstrs", "staticChecks"})
    if (const JsonValue *V = Run->get(Count); V && V->isNumber())
      Out.push_back({Prefix + Count, MetricKind::ExactCount, V->Number,
                     V->Number, V->Number});

  if (const JsonValue *Work = Run->get("work"); Work && Work->isObject())
    for (const auto &[Name, V] : Work->Object)
      if (V.isNumber())
        Out.push_back({Prefix + "work." + Name, MetricKind::ExactCount,
                       V.Number, V.Number, V.Number});

  const JsonValue *Timing = Run->get("timing");
  if (!Timing || !Timing->isObject())
    return;
  for (const auto &[Clock, Stats] : Timing->Object) {
    SampleStats S;
    if (!SampleStats::fromJson(Stats, S))
      continue;
    // Only the CPU clock is gated; wall time under a parallel ctest run
    // is not a property of the code under test.
    bool Cpu = Clock.find("Cpu") != std::string::npos;
    Out.push_back({Prefix + "timing." + Clock,
                   Cpu ? MetricKind::TimeSeconds : MetricKind::Informational,
                   S.Median, S.CiLow, S.CiHigh});
  }
}

void extractGoogleBenchmark(const JsonValue &Google,
                            std::vector<BenchMetric> &Out) {
  const JsonValue *Benchmarks = Google.get("benchmarks");
  if (!Benchmarks || !Benchmarks->isArray())
    return;
  for (const JsonValue &Entry : Benchmarks->Array) {
    if (!Entry.isObject())
      continue;
    // Gate only the median aggregates: single-repetition entries carry no
    // location estimate worth comparing.
    const JsonValue *Aggregate = Entry.get("aggregate_name");
    if (!Aggregate || !Aggregate->isString() ||
        Aggregate->String != "median")
      continue;
    const JsonValue *Name = Entry.get("run_name");
    if (!Name || !Name->isString())
      Name = Entry.get("name");
    if (!Name || !Name->isString())
      continue;
    double Unit = timeUnitSeconds(Entry);
    if (const JsonValue *V = Entry.get("cpu_time"); V && V->isNumber())
      Out.push_back({Name->String + "/cpu_time", MetricKind::TimeSeconds,
                     V->Number * Unit, V->Number * Unit, V->Number * Unit});
    if (const JsonValue *V = Entry.get("real_time"); V && V->isNumber())
      Out.push_back({Name->String + "/real_time",
                     MetricKind::Informational, V->Number * Unit,
                     V->Number * Unit, V->Number * Unit});
  }
}

} // namespace

std::vector<BenchMetric>
nascent::obs::extractBenchMetrics(const JsonValue &Doc) {
  std::vector<BenchMetric> Out;
  if (!Doc.isObject())
    return Out;
  if (const JsonValue *Runs = Doc.get("runs"); Runs && Runs->isArray())
    for (const JsonValue &Elem : Runs->Array)
      if (Elem.isObject())
        extractTableRun(Elem, Out);
  if (const JsonValue *Google = Doc.get("googleBenchmark");
      Google && Google->isObject())
    extractGoogleBenchmark(*Google, Out);
  return Out;
}

namespace {

MetricDiff compareMetric(const BenchMetric &Base, const BenchMetric &Cur,
                         const BenchDiffOptions &Opts, bool HostDrift) {
  MetricDiff D;
  D.Key = Base.Key;
  D.Kind = Base.Kind;
  D.Baseline = Base.Value;
  D.Current = Cur.Value;

  if (Base.Kind == MetricKind::ExactCount) {
    if (Cur.Value == Base.Value)
      D.Verdict = DiffVerdict::Equal;
    else if (Cur.Value > Base.Value) {
      D.Verdict = DiffVerdict::Regressed;
      D.Note = "deterministic counter increased";
    } else {
      D.Verdict = DiffVerdict::Improved;
      D.Note = "deterministic counter decreased";
    }
    return D;
  }

  if (Base.Kind == MetricKind::Informational) {
    D.Verdict = Cur.Value == Base.Value ? DiffVerdict::Equal
                                        : DiffVerdict::WithinNoise;
    D.Note = "informational (not gated)";
    return D;
  }

  // TimeSeconds: CI separation plus relative margin, over a measurable
  // floor, and only against a baseline measured on the same kind of host.
  if (HostDrift) {
    D.Verdict = Cur.Value == Base.Value ? DiffVerdict::Equal
                                        : DiffVerdict::WithinNoise;
    D.Note = "informational (baseline measured on a different host)";
    return D;
  }
  if (Base.Value < Opts.MinTimeSeconds) {
    D.Verdict = Cur.Value == Base.Value ? DiffVerdict::Equal
                                        : DiffVerdict::WithinNoise;
    D.Note = formatString("below the %.0f us gating floor",
                          Opts.MinTimeSeconds * 1e6);
    return D;
  }
  double UpperBar = Base.Value * (1 + Opts.TimeMargin);
  double LowerBar = Base.Value / (1 + Opts.TimeMargin);
  if (Cur.CiLow > Base.CiHigh && Cur.Value > UpperBar) {
    D.Verdict = DiffVerdict::Regressed;
    D.Note = formatString("%.2fx slower, outside the 95%% CI",
                          Cur.Value / Base.Value);
  } else if (Cur.CiHigh < Base.CiLow && Cur.Value < LowerBar) {
    D.Verdict = DiffVerdict::Improved;
    D.Note = formatString("%.2fx faster, outside the 95%% CI",
                          Base.Value / std::max(Cur.Value, 1e-12));
  } else if (Cur.Value == Base.Value) {
    D.Verdict = DiffVerdict::Equal;
  } else {
    D.Verdict = DiffVerdict::WithinNoise;
  }
  return D;
}

void diffEnv(const JsonValue &Baseline, const JsonValue &Current,
             BenchDiffResult &R) {
  const JsonValue *BE = Baseline.get("env");
  const JsonValue *CE = Current.get("env");
  if (!BE || !CE)
    return;
  BenchEnv B, C;
  readBenchEnv(*BE, B);
  readBenchEnv(*CE, C);
  auto Drift = [&R](const char *Field, const std::string &Base,
                    const std::string &Cur) {
    if (Base != Cur)
      R.EnvDrift.push_back(std::string(Field) + ": '" + Base + "' -> '" +
                           Cur + "'");
  };
  Drift("compiler", B.Compiler, C.Compiler);
  Drift("buildType", B.BuildType, C.BuildType);
  Drift("cxxFlags", B.CxxFlags, C.CxxFlags);
  Drift("sanitize", B.Sanitize, C.Sanitize);
  Drift("gitSha", B.GitSha, C.GitSha);
  Drift("cpu", B.Cpu, C.Cpu);
  Drift("hardwareThreads", std::to_string(B.HardwareThreads),
        std::to_string(C.HardwareThreads));
  R.HostDrift = B.Cpu != C.Cpu || B.HardwareThreads != C.HardwareThreads ||
                B.BuildType != C.BuildType;
}

} // namespace

BenchDiffResult
nascent::obs::diffBenchDocuments(const JsonValue &Baseline,
                                 const JsonValue &Current,
                                 const BenchDiffOptions &Opts) {
  BenchDiffResult R;
  if (const JsonValue *H = Current.get("harness"); H && H->isString())
    R.Harness = H->String;
  diffEnv(Baseline, Current, R);

  std::vector<BenchMetric> Base = extractBenchMetrics(Baseline);
  std::vector<BenchMetric> Cur = extractBenchMetrics(Current);
  std::map<std::string, const BenchMetric *> CurByKey;
  for (const BenchMetric &M : Cur)
    CurByKey[M.Key] = &M;
  std::map<std::string, const BenchMetric *> BaseByKey;
  for (const BenchMetric &M : Base)
    BaseByKey[M.Key] = &M;

  for (const BenchMetric &B : Base) {
    auto It = CurByKey.find(B.Key);
    if (It == CurByKey.end()) {
      MetricDiff D;
      D.Key = B.Key;
      D.Kind = B.Kind;
      D.Verdict = DiffVerdict::MissingInCurrent;
      D.Baseline = B.Value;
      D.Note = "metric vanished — stale baseline?";
      R.Diffs.push_back(std::move(D));
      continue;
    }
    R.Diffs.push_back(compareMetric(B, *It->second, Opts, R.HostDrift));
  }
  for (const BenchMetric &C : Cur)
    if (!BaseByKey.count(C.Key)) {
      MetricDiff D;
      D.Key = C.Key;
      D.Kind = C.Kind;
      D.Verdict = DiffVerdict::NewInCurrent;
      D.Current = C.Value;
      D.Note = "no baseline yet";
      R.Diffs.push_back(std::move(D));
    }

  for (const MetricDiff &D : R.Diffs)
    switch (D.Verdict) {
    case DiffVerdict::Equal:
      ++R.NumEqual;
      break;
    case DiffVerdict::WithinNoise:
      ++R.NumWithinNoise;
      break;
    case DiffVerdict::Improved:
      ++R.NumImproved;
      break;
    case DiffVerdict::Regressed:
      ++R.NumRegressed;
      break;
    case DiffVerdict::MissingInCurrent:
      ++R.NumMissing;
      break;
    case DiffVerdict::NewInCurrent:
      ++R.NumNew;
      break;
    }
  return R;
}

namespace {

const char *verdictWord(DiffVerdict V) {
  switch (V) {
  case DiffVerdict::Equal:
    return "equal";
  case DiffVerdict::WithinNoise:
    return "within noise";
  case DiffVerdict::Improved:
    return "**improved**";
  case DiffVerdict::Regressed:
    return "**REGRESSED**";
  case DiffVerdict::MissingInCurrent:
    return "**MISSING**";
  case DiffVerdict::NewInCurrent:
    return "new";
  }
  return "?";
}

std::string formatMetricValue(MetricKind Kind, double V) {
  if (Kind == MetricKind::ExactCount)
    return formatString("%.0f", V);
  return formatString("%.3f ms", V * 1e3);
}

/// Ordering for the report: regressions first, then missing, improved,
/// new; noise and equal rows are summarised, not listed.
int verdictRank(DiffVerdict V) {
  switch (V) {
  case DiffVerdict::Regressed:
    return 0;
  case DiffVerdict::MissingInCurrent:
    return 1;
  case DiffVerdict::Improved:
    return 2;
  case DiffVerdict::NewInCurrent:
    return 3;
  case DiffVerdict::WithinNoise:
    return 4;
  case DiffVerdict::Equal:
    return 5;
  }
  return 6;
}

} // namespace

std::string
nascent::obs::renderMarkdownReport(const BenchDiffResult &R,
                                   const std::string &BaselineName) {
  std::string Out;
  Out += "# benchdiff: " +
         (R.Harness.empty() ? std::string("<unknown harness>") : R.Harness) +
         "\n\n";
  Out += "Baseline: `" + BaselineName + "`\n\n";
  Out += std::string("Verdict: ") +
         (R.hasRegression() ? "**REGRESSION**" : "ok") + " — ";
  Out += formatString("%zu regressed, %zu missing, %zu improved, %zu new, "
                      "%zu within noise, %zu equal\n\n",
                      R.NumRegressed, R.NumMissing, R.NumImproved, R.NumNew,
                      R.NumWithinNoise, R.NumEqual);

  if (!R.EnvDrift.empty()) {
    Out += "Environment drift (informational):\n\n";
    for (const std::string &D : R.EnvDrift)
      Out += "- " + D + "\n";
    Out += "\n";
    if (R.HostDrift)
      Out += "The baseline ran on a different host (cpu, hardware threads or "
             "build type), so times are informational; exact counters still "
             "gate.\n\n";
  }

  std::vector<const MetricDiff *> Listed;
  for (const MetricDiff &D : R.Diffs)
    if (D.Verdict != DiffVerdict::Equal &&
        D.Verdict != DiffVerdict::WithinNoise)
      Listed.push_back(&D);
  if (Listed.empty())
    return Out;

  std::stable_sort(Listed.begin(), Listed.end(),
                   [](const MetricDiff *A, const MetricDiff *B) {
                     return verdictRank(A->Verdict) < verdictRank(B->Verdict);
                   });

  constexpr size_t MaxRows = 64;
  Out += "| metric | baseline | current | verdict | note |\n";
  Out += "|---|---|---|---|---|\n";
  size_t Rows = 0;
  for (const MetricDiff *D : Listed) {
    if (++Rows > MaxRows) {
      Out += formatString("\n…and %zu more rows.\n",
                          Listed.size() - MaxRows);
      break;
    }
    std::string Base = D->Verdict == DiffVerdict::NewInCurrent
                           ? "—"
                           : formatMetricValue(D->Kind, D->Baseline);
    std::string Cur = D->Verdict == DiffVerdict::MissingInCurrent
                          ? "—"
                          : formatMetricValue(D->Kind, D->Current);
    Out += "| `" + D->Key + "` | " + Base + " | " + Cur + " | " +
           verdictWord(D->Verdict) + " | " + D->Note + " |\n";
  }
  return Out;
}

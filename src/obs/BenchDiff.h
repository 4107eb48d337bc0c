//===----------------------------------------------------------------------===//
///
/// \file
/// The noise-aware bench comparison engine behind `examples/benchdiff`.
/// It reads the harness documents of obs/BenchSchema.h: a "runs" array
/// whose elements carry the measured counts, the timing SampleStats
/// blocks, and the "work" object of per-rep StatRegistry deltas.
///
/// The comparison discipline mirrors the two kinds of signal:
///
///  - **Deterministic counts** (dynamic/static check and instruction
///    counts, every work-proxy counter) are compared exactly. Any
///    increase is a regression — these cannot be noise.
///  - **Times** (CPU-clock medians) regress only when the bootstrap
///    confidence intervals separate AND the median moved by more than the
///    relative margin; baselines below the measurable floor are
///    informational. Wall-clock times are never gated (a parallel ctest
///    run makes them meaningless) — they are reported informationally.
///    When the baseline's cpu, hardware-thread count or build type differs
///    from the current run's, no time gates at all: a time measured on
///    another host says nothing about this change.
///  - Metrics present in the baseline but missing from the current run
///    fail the gate (structure drift means the baseline is stale).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_BENCHDIFF_H
#define NASCENT_OBS_BENCHDIFF_H

#include <cstddef>
#include <string>
#include <vector>

namespace nascent {
namespace obs {

struct JsonValue;

/// How a metric participates in the gate.
enum class MetricKind {
  ExactCount,    ///< deterministic; any increase regresses
  TimeSeconds,   ///< noise-aware CI + margin rule
  Informational, ///< reported, never gated (wall times, rates)
};

/// One comparable measurement extracted from a bench document.
struct BenchMetric {
  std::string Key; ///< e.g. "PRX/LLS/arc2d/timing.optimizeCpu"
  MetricKind Kind = MetricKind::ExactCount;
  double Value = 0;
  /// Bootstrap interval for TimeSeconds metrics; equal to Value when the
  /// source had no interval (n == 1).
  double CiLow = 0;
  double CiHigh = 0;
};

enum class DiffVerdict {
  Equal,       ///< identical (exact) or same value (time)
  WithinNoise, ///< time moved inside the noise envelope
  Improved,    ///< count decreased / time separated downward
  Regressed,   ///< count increased / time separated upward
  MissingInCurrent, ///< baseline metric absent now — stale baseline
  NewInCurrent,     ///< current metric with no baseline — informational
};

struct MetricDiff {
  std::string Key;
  MetricKind Kind = MetricKind::ExactCount;
  DiffVerdict Verdict = DiffVerdict::Equal;
  double Baseline = 0;
  double Current = 0;
  std::string Note;
};

struct BenchDiffOptions {
  /// Relative slowdown a time median must exceed, in addition to CI
  /// separation, before it regresses. Generous by default: the gate runs
  /// on --tiny suites where a 50 % swing is well within a loaded
  /// machine's behaviour, and the deterministic counters carry the
  /// fine-grained signal.
  double TimeMargin = 0.5;
  /// Baseline medians below this many seconds are too small to gate.
  double MinTimeSeconds = 1e-4;
};

struct BenchDiffResult {
  std::vector<MetricDiff> Diffs;
  size_t NumEqual = 0;
  size_t NumWithinNoise = 0;
  size_t NumImproved = 0;
  size_t NumRegressed = 0;
  size_t NumMissing = 0;
  size_t NumNew = 0;
  /// Environment fields that differ between the documents (informational;
  /// a new git SHA is the expected state of affairs).
  std::vector<std::string> EnvDrift;
  /// The cpu, hardware-thread count or build type differs: every time
  /// metric was compared informationally.
  bool HostDrift = false;
  std::string Harness;

  bool hasRegression() const { return NumRegressed + NumMissing > 0; }
};

/// Flattens \p Doc into comparable metrics. Unknown document shapes yield
/// an empty vector.
std::vector<BenchMetric> extractBenchMetrics(const JsonValue &Doc);

/// Compares \p Current against \p Baseline under \p Opts.
BenchDiffResult diffBenchDocuments(const JsonValue &Baseline,
                                   const JsonValue &Current,
                                   const BenchDiffOptions &Opts = {});

/// Renders the trajectory report: verdict, summary counts, env drift, and
/// a table of every non-equal metric (regressions first).
std::string renderMarkdownReport(const BenchDiffResult &R,
                                 const std::string &BaselineName);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_BENCHDIFF_H

#include "obs/Trace.h"

#include "obs/Json.h"

#include <atomic>
#include <cmath>
#include <ctime>
#include <fstream>

#if defined(__linux__) || defined(__APPLE__)
#include <time.h>
#endif

using namespace nascent;
using namespace nascent::obs;

double obs::processCpuSeconds() {
#if defined(__linux__) || defined(__APPLE__)
  struct timespec TS;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS) == 0)
    return static_cast<double>(TS.tv_sec) +
           static_cast<double>(TS.tv_nsec) * 1e-9;
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double obs::threadCpuSeconds() {
#if defined(__linux__) || defined(__APPLE__)
  struct timespec TS;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS) == 0)
    return static_cast<double>(TS.tv_sec) +
           static_cast<double>(TS.tv_nsec) * 1e-9;
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

uint32_t obs::currentThreadTag() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Tag = Next.fetch_add(1, std::memory_order_relaxed);
  return Tag;
}

const PhaseTiming *PhaseTimings::find(const std::string &Name) const {
  for (const PhaseTiming &P : Phases)
    if (P.Depth == 0 && P.Name == Name)
      return &P;
  return nullptr;
}

double PhaseTimings::wallOf(const std::string &Name) const {
  double Sum = 0;
  for (const PhaseTiming &P : Phases)
    if (P.Name == Name)
      Sum += P.WallSeconds;
  return Sum;
}

double PhaseTimings::cpuOf(const std::string &Name) const {
  const PhaseTiming *P = find(Name);
  return P ? P->CpuSeconds : 0;
}

ScopedPhase::ScopedPhase(PhaseTimings *PT, std::string Name) : PT(PT) {
  if (!PT)
    return;
  Index = PT->Phases.size();
  PhaseTiming P;
  P.Name = std::move(Name);
  P.Depth = PT->Open++;
  PT->Phases.push_back(std::move(P));
  // Clocks last, so the bookkeeping above is not charged to the phase.
  if (PT->Open == 1)
    CpuT0 = threadCpuSeconds();
  WallT0 = std::chrono::steady_clock::now();
}

ScopedPhase::~ScopedPhase() {
  if (!PT)
    return;
  auto WallT1 = std::chrono::steady_clock::now();
  PhaseTiming &P = PT->Phases[Index];
  if (P.Depth == 0)
    P.CpuSeconds = threadCpuSeconds() - CpuT0;
  P.WallStart = std::chrono::duration<double>(WallT0 - PT->Origin).count();
  P.WallSeconds = std::chrono::duration<double>(WallT1 - WallT0).count();
  --PT->Open;
}

namespace {

/// Whole nanoseconds of \p Seconds. Phase times are integral nanosecond
/// counts of steady_clock, so rounding recovers them exactly and spans
/// rendered from them keep their containment.
int64_t toNs(double Seconds) { return std::llround(Seconds * 1e9); }

/// One complete "X" span, \p ShiftNs after the document's origin. Times
/// are microseconds with nanosecond fractions (Chrome's unit, fractional
/// values allowed), so a span of under a microsecond keeps its length and
/// its place inside its parent.
void writeSpan(JsonWriter &W, const PhaseTiming &P, uint32_t Tid,
               int64_t ShiftNs) {
  int64_t StartNs = ShiftNs + toNs(P.WallStart);
  int64_t EndNs = ShiftNs + toNs(P.WallStart + P.WallSeconds);
  W.beginObject();
  W.kv("name", P.Name);
  W.kv("cat", "phase");
  W.kv("ph", "X");
  W.key("ts");
  W.value(static_cast<double>(StartNs) / 1e3, 3);
  W.key("dur");
  W.value(static_cast<double>(EndNs - StartNs) / 1e3, 3);
  W.kv("pid", 1);
  W.kv("tid", Tid);
  W.endObject();
}

} // namespace

std::string obs::mergedTraceJson(const std::vector<TraceMergeInput> &Inputs) {
  // Anchor every record to the earliest origin so concurrent workers'
  // spans land where they actually overlapped in time.
  bool HaveOrigin = false;
  std::chrono::steady_clock::time_point MinOrigin;
  for (const TraceMergeInput &In : Inputs) {
    if (!In.Phases)
      continue;
    if (!HaveOrigin || In.Phases->Origin < MinOrigin) {
      MinOrigin = In.Phases->Origin;
      HaveOrigin = true;
    }
  }

  JsonWriter W;
  W.beginObject();
  W.key("traceEvents").beginArray();
  for (const TraceMergeInput &In : Inputs) {
    const PhaseTimings *PT = In.Phases;
    if (!PT)
      continue;
    int64_t ShiftNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          PT->Origin - MinOrigin)
                          .count();
    if (!In.Label.empty()) {
      W.beginObject();
      W.kv("name", "thread_name");
      W.kv("ph", "M");
      W.kv("pid", 1);
      W.kv("tid", PT->Tid);
      W.key("args").beginObject();
      W.kv("name", In.Label);
      W.endObject();
      W.endObject();
    }
    for (const PhaseTiming &P : PT->Phases)
      writeSpan(W, P, PT->Tid, ShiftNs);
  }
  W.endArray();
  W.kv("displayTimeUnit", "ms");
  W.endObject();
  return W.take();
}

bool obs::writeMergedTraceFile(const std::vector<TraceMergeInput> &Inputs,
                               const std::string &Path, std::string *Err) {
  std::ofstream OS(Path, std::ios::binary);
  if (!OS) {
    if (Err)
      *Err = "cannot open trace output file '" + Path + "'";
    return false;
  }
  OS << mergedTraceJson(Inputs) << "\n";
  if (!OS) {
    if (Err)
      *Err = "error writing trace output file '" + Path + "'";
    return false;
  }
  return true;
}

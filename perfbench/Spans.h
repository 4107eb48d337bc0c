//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recorder for the traced run. The benchmark wraps each
/// call into a layer function in a span (name, start, end, parent span,
/// operation id) and attaches the count observed at that boundary. Spans
/// stay in memory while the workload runs and are written out once, at
/// the end, as a Chrome trace_event document (README.md, "Span file").
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records, with the layer (src/ module)
/// its self time is charged to.
enum class SpanKind : uint8_t {
  Op,          ///< one benchmark operation (root span); layer "bench"
  Parse,       ///< Parser::parseProgram; layer "lang"
  Sema,        ///< Sema::run; layer "lang"
  Lower,       ///< lowerProgram; layer "frontend"
  Verify,      ///< verifyModule before optimization; layer "ir"
  Inx,         ///< synthesizeINXChecks; layer "checks"
  Snapshot,    ///< Module::clone for the audit; layer "audit"
  Optimize,    ///< optimizeModule; layer "opt"
  VerifyPost,  ///< verifyModule after optimization; layer "ir"
  Audit,       ///< auditModulePair; layer "audit"
  Interpret,   ///< interpret; layer "interp"
  CacheLookup, ///< frontend-tier key + find + clone on hit; layer "cache"
  CacheStore,  ///< frontend-tier clone + store on miss; layer "cache"
  NumKinds
};

const char *spanName(SpanKind K);
const char *spanLayer(SpanKind K);

struct Span {
  SpanKind Kind = SpanKind::Op;
  uint32_t Parent = 0; ///< index + 1 of the parent span; 0 = root
  uint32_t Op = 0;     ///< operation id shared by one operation's spans
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// The count measured at this boundary (source bytes for parse, naive
  /// checks after lower, residual checks after optimize, findings after
  /// audit, executed instructions + checks after interpret).
  uint64_t Count = 0;
  /// Free-form label of the operation (root spans only), e.g. the cell.
  uint32_t Label = 0;
};

class SpanRecorder {
public:
  SpanRecorder() : Origin(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its handle (index + 1), usable as Parent.
  uint32_t begin(SpanKind K, uint32_t Parent, uint32_t Op) {
    Span S;
    S.Kind = K;
    S.Parent = Parent;
    S.Op = Op;
    S.StartNs = nowNs();
    Spans.push_back(S);
    return static_cast<uint32_t>(Spans.size());
  }
  void end(uint32_t Handle, uint64_t Count = 0) {
    Span &S = Spans[Handle - 1];
    S.EndNs = nowNs();
    S.Count = Count;
  }
  void setLabel(uint32_t Handle, const std::string &Label);
  /// Sets a closed span's count, for counts taken after the span ends so
  /// that counting is not charged to the layer.
  void setCount(uint32_t Handle, uint64_t Count) {
    Spans[Handle - 1].Count = Count;
  }

  const std::vector<Span> &spans() const { return Spans; }
  const Span &span(uint32_t Handle) const { return Spans[Handle - 1]; }
  const std::string &label(const Span &S) const { return Labels[S.Label]; }

  /// Self time of every span: its duration minus the part its direct
  /// children cover (children never overlap: the benchmark is serial).
  std::vector<int64_t> selfTimesNs() const;

  /// Writes the spans as a Chrome trace_event JSON document. Returns
  /// false (and leaves \p Err set) when the file cannot be written.
  bool writeChromeTrace(const std::string &Path,
                        const std::map<std::string, std::string> &Meta,
                        std::string &Err) const;

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Origin)
        .count();
  }

  std::chrono::steady_clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<std::string> Labels{""};
  std::unordered_map<std::string, uint32_t> LabelIds;
};

/// RAII span: closes on scope exit with whatever count was set.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, SpanKind K, uint32_t Parent, uint32_t Op)
      : R(R), Handle(R.begin(K, Parent, Op)) {}
  ~ScopedSpan() { R.end(Handle, Count); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  void count(uint64_t C) { Count = C; }
  uint32_t handle() const { return Handle; }

private:
  SpanRecorder &R;
  uint32_t Handle;
  uint64_t Count = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H

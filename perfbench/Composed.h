//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's compile path: compileSource's steps walked one by one
/// through the public layer functions, in the same order, each wrapped in
/// a span. reconcile() proves, per cell, that this composition measures
/// the same program compileSource builds.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMPOSED_H
#define PERFBENCH_COMPOSED_H

#include "Spans.h"

#include "driver/Pipeline.h"

#include <memory>
#include <string>

namespace perfbench {

/// What the composed pipeline produced for one cell.
struct ComposedResult {
  bool Success = false;
  std::unique_ptr<nascent::Module> M;
  nascent::OptimizerStats Stats;
  nascent::AuditReport Audit;
  std::string Errors;
};

/// Compiles \p Source as compileSource(Source, Opts) would, recording one
/// child span of \p Parent per layer call. The cache is used only when
/// Opts.Cache.Enabled and Opts.Cache.Cache is set.
ComposedResult composeCompile(const std::string &Source,
                              const nascent::PipelineOptions &Opts,
                              SpanRecorder &Spans, uint32_t Parent,
                              uint32_t Op);

/// Empty when the composed result and compileSource's result agree on
/// success, residual static checks, every OptimizerStats field and the
/// number of audit findings; otherwise a description of the mismatch.
std::string reconcile(const ComposedResult &Composed,
                      const nascent::CompileResult &Reference);

} // namespace perfbench

#endif // PERFBENCH_COMPOSED_H

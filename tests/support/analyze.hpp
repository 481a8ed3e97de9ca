// Test-local one-shot analysis helper: runs a trace through the staged
// cla::analysis::Pipeline and returns the result, for suites that only
// want the statistics in one line.
#pragma once

#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace.hpp"

namespace cla::test_support {

inline analysis::AnalysisResult analyze(const trace::Trace& trace,
                                        const analysis::Options& options = {}) {
  analysis::Pipeline pipeline(options);
  pipeline.use_trace(trace);
  return pipeline.result();
}

}  // namespace cla::test_support

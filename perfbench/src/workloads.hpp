// The benchmark's workloads. Each fills a Result from one process: the
// end-to-end metrics with tracing off, or (Options::trace) the per-layer
// metrics of a traced run next to an untraced one.
#pragma once
#include "report.hpp"

namespace perfbench {

/// The paper's experiment: four detectors over the AS x DW suite, jobs=4.
void run_paper_maps(const Options& options, Result& result);

/// The serve layer's bulk path: Stide DW 6 sessions pushing 512-event frames.
void run_serve_stide_bulk(const Options& options, Result& result);

/// The serve layer's chatty path: a three-detector vote ensemble pushing
/// 32-event frames.
void run_serve_ensemble_chatty(const Options& options, Result& result);

}  // namespace perfbench

// Host-calibration probe: how well this host scales two trivially parallel
// loops across threads, so an engine or serve speedup can be read as coming
// from the host or from the code. Each thread runs the same fixed work, so
// ideal scaling keeps the wall time flat; efficiency at N threads is
// t(1 thread) / t(N threads). Every run reports it.
#pragma once
#include "report.hpp"

namespace perfbench {

/// Runs the probe at 1, 2 and 4 threads and adds host.{compute,malloc}_eff_{2,4}
/// to the result; the 4-thread figures are JSON per-layer metrics when
/// `layer` is set.
void report_host_probe(Result& result, bool layer);

}  // namespace perfbench

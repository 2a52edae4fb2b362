// The benchmark's workloads. Each runs in its own process, on one
// thread, from inputs generated from Options::seed. With trace off a
// workload measures the end-to-end metrics of the calls users make;
// with trace on it replays one operation layer by layer through the
// library's public functions and reports the per-layer metrics.
// Returns false when the run must be refused (non-optimised build).
#pragma once

#include "common.hpp"

namespace perfbench {

bool run_alltoall_2d(const Options& options, Result& result);
bool run_checked_3d(const Options& options, Result& result);
bool run_svc_sessions(const Options& options, Result& result);

}  // namespace perfbench

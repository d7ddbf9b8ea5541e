// The four workloads.  Each runs its round until the time budget is spent
// and fills the end-to-end metrics; given a SimTrace (sim workloads) or a
// layers result (live), it also collects what the per-layer report needs.
#pragma once

#include <string>

#include "common.h"
#include "layers.h"

namespace perf {

Result run_grid_flood(const Args& args, SimTrace* trace_out);
Result run_grid_churn(const Args& args, SimTrace* trace_out);
Result run_app_query(const Args& args, SimTrace* trace_out);

/// Fills the end-to-end metrics into `out` and, given `layers`, the net
/// per-layer metrics there.  Returns false with `skip_reason` set when
/// loopback UDP is unavailable.
bool run_live_mass(const Args& args, Result& out, Result* layers,
                   std::string& skip_reason);

}  // namespace perf

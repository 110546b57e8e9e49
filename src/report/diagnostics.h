// JSON serialization of solver diagnostics (core/status.h) and run
// resilience state (core/run_context.h), so sign-off reports and downstream
// tooling can see which kernels ran, how hard they worked, whether any
// recovery stage fired, and whether a deadline or cancellation shaped the
// run.
#pragma once

#include "core/run_context.h"
#include "core/status.h"
#include "report/json.h"

namespace dsmt::report {

/// Serializes a diagnostic chain: the summary fields plus every recorded
/// attempt/recovery event, in order.
Json diag_to_json(const core::SolverDiag& diag);
/// Writes the object diag_to_json builds, field for field, as the writer's
/// next value.
void write_diag(JsonWriter& out, const core::SolverDiag& diag);

/// Serializes the run's resilience state: deadline arming and remaining
/// budget [s], cancellation flag and heartbeat count. This is what lands
/// under the sign-off report's "run" key.
Json run_to_json(const core::RunContext& context);

}  // namespace dsmt::report

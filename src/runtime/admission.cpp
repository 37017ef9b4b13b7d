#include "runtime/admission.h"

namespace xrbench::runtime {

bool DropEarlyController::admit(const DispatchContext& ctx) {
  if (ctx.request == nullptr || ctx.telemetry == nullptr) return true;
  const auto task = ctx.request->task;
  // Permissive until the first completed sample: a cold EWMA of 0 would
  // otherwise never reject anyway, but being explicit keeps the contract
  // obvious — no telemetry, no prediction, no drop.
  if (ctx.telemetry->task_completions(task) == 0) return true;
  const double predicted_done =
      ctx.now_ms + ctx.telemetry->task_latency_ewma(task);
  return predicted_done <= ctx.request->tdl_ms;
}

}  // namespace xrbench::runtime

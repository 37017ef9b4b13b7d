#pragma once

#include <cstdint>

#include "models/task.h"

namespace xrbench::runtime {

/// An inference request (Definition 6: IR = (mu, InFrameID)) with its
/// Box-1 timing attributes.
struct InferenceRequest {
  models::TaskId task = models::TaskId::kHT;
  std::int64_t frame = 0;      ///< Frame index at the model's target rate.
  double treq_ms = 0.0;        ///< Request (input-ready) time, Definition 7.
  double tdl_ms = 0.0;         ///< Deadline, Definition 8.
  bool from_upstream = false;  ///< Created by an upstream model completion.
  /// Fault-injection bookkeeping (0/-1 on fault-free runs). `attempt`
  /// counts transient-failure retries of this request; it keys the
  /// per-attempt Bernoulli redraw in FaultPlan::transient_fault, so a retry
  /// is a fresh draw while an outage re-queue (same attempt) replays the
  /// same one. `killed_on` is the unit an outage killed this request on
  /// (-1: never killed); a re-dispatch onto a different unit counts as a
  /// failover.
  std::int32_t attempt = 0;
  std::int32_t killed_on = -1;
  /// Layer-granular checkpoint cursor: number of layers already completed
  /// by a killed earlier attempt (0 = start from scratch). Only ever
  /// non-zero when the fault spec enables checkpointing; a re-dispatch
  /// starts at this layer, paying the remaining layers' cost plus the
  /// checkpoint restore overhead.
  std::int32_t resume_layer = 0;

  /// Inference slack (Definition 9): Tsl = Tdl - Treq.
  double slack_ms() const { return tdl_ms - treq_ms; }
};

/// One busy interval of a sub-accelerator (execution-timeline entry; the
/// Figure-6 plots are rendered from these). ScenarioRunResult::timeline()
/// derives them from the executed records and the aborted dispatches.
struct BusyInterval {
  int sub_accel = 0;
  models::TaskId task = models::TaskId::kHT;
  std::int64_t frame = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

}  // namespace xrbench::runtime

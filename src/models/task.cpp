#include "models/task.h"

#include <cctype>
#include <stdexcept>

namespace xrbench::models {

const std::array<TaskId, kNumTasks>& all_tasks() {
  static const std::array<TaskId, kNumTasks> tasks = {
      TaskId::kHT, TaskId::kES, TaskId::kGE, TaskId::kKD,
      TaskId::kSR, TaskId::kSS, TaskId::kOD, TaskId::kAS,
      TaskId::kDE, TaskId::kDR, TaskId::kPD};
  return tasks;
}

const char* task_code(TaskId t) {
  switch (t) {
    case TaskId::kHT: return "HT";
    case TaskId::kES: return "ES";
    case TaskId::kGE: return "GE";
    case TaskId::kKD: return "KD";
    case TaskId::kSR: return "SR";
    case TaskId::kSS: return "SS";
    case TaskId::kOD: return "OD";
    case TaskId::kAS: return "AS";
    case TaskId::kDE: return "DE";
    case TaskId::kDR: return "DR";
    case TaskId::kPD: return "PD";
  }
  return "?";
}

const char* model_instance_name(TaskId t) {
  switch (t) {
    case TaskId::kHT: return "Hand Shape/Pose CNN";
    case TaskId::kES: return "RITNet";
    case TaskId::kGE: return "FBNet-C (Eyecod)";
    case TaskId::kKD: return "res8-narrow";
    case TaskId::kSR: return "Emformer EM-24L";
    case TaskId::kSS: return "HRViT-b1";
    case TaskId::kOD: return "Faster-RCNN-FBNetV3A";
    case TaskId::kAS: return "ED-TCN";
    case TaskId::kDE: return "MiDaS v21 small";
    case TaskId::kDR: return "Sparse-to-Dense RGBd-200";
    case TaskId::kPD: return "PlaneRCNN";
  }
  return "?";
}

const char* task_category(TaskId t) {
  switch (t) {
    case TaskId::kHT:
    case TaskId::kES:
    case TaskId::kGE:
      return "Interaction";
    case TaskId::kKD:
    case TaskId::kSR:
      return "Interaction/Context";
    case TaskId::kSS:
    case TaskId::kOD:
    case TaskId::kAS:
      return "Context Understanding";
    case TaskId::kDE:
    case TaskId::kDR:
    case TaskId::kPD:
      return "World Locking";
  }
  return "?";
}

TaskId parse_task_code(const std::string& code) {
  std::string u;
  for (char c : code) u += static_cast<char>(std::toupper(c));
  for (TaskId t : all_tasks()) {
    if (u == task_code(t)) return t;
  }
  throw std::invalid_argument("parse_task_code: unknown task code '" + code +
                              "'");
}

}  // namespace xrbench::models

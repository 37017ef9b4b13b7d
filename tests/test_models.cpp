#include "models/zoo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "costmodel/cost_model.h"
#include "models/task.h"

namespace xrbench::models {
namespace {

TEST(Task, AllTasksHaveDistinctCodes) {
  std::set<std::string> codes;
  for (TaskId t : all_tasks()) codes.insert(task_code(t));
  EXPECT_EQ(codes.size(), kNumTasks);
}

TEST(Task, ParseRoundTrip) {
  for (TaskId t : all_tasks()) {
    EXPECT_EQ(parse_task_code(task_code(t)), t);
  }
  EXPECT_EQ(parse_task_code("ht"), TaskId::kHT);
  EXPECT_THROW(parse_task_code("ZZ"), std::invalid_argument);
}

TEST(Task, IndicesAreDenseAndStable) {
  std::set<std::size_t> idx;
  for (TaskId t : all_tasks()) {
    const auto i = task_index(t);
    EXPECT_LT(i, kNumTasks);
    idx.insert(i);
  }
  EXPECT_EQ(idx.size(), kNumTasks);
  // Table-1 order: CostTable rows, the runner's slot table and the runner
  // golden digests all key on it.
  for (std::size_t i = 0; i < kNumTasks; ++i) {
    EXPECT_EQ(task_index(all_tasks()[i]), i) << task_code(all_tasks()[i]);
  }
}

TEST(Task, CategoriesMatchTable1) {
  EXPECT_STREQ(task_category(TaskId::kHT), "Interaction");
  EXPECT_STREQ(task_category(TaskId::kSS), "Context Understanding");
  EXPECT_STREQ(task_category(TaskId::kPD), "World Locking");
  // KD/SR serve both Interaction and Context Understanding in Table 1.
  EXPECT_STREQ(task_category(TaskId::kKD), "Interaction/Context");
}

TEST(Zoo, BuildsEveryModel) {
  for (TaskId t : all_tasks()) {
    const auto g = build_model(t);
    EXPECT_FALSE(g.empty()) << task_code(t);
    EXPECT_GT(g.total_macs(), 0) << task_code(t);
    EXPECT_GT(g.total_params(), 0) << task_code(t);
  }
}

TEST(Zoo, CachedGraphIsStable) {
  const auto& a = model_graph(TaskId::kES);
  const auto& b = model_graph(TaskId::kES);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.total_macs(), build_model(TaskId::kES).total_macs());
}

TEST(Zoo, PlaneDetectionIsTheHeavyweight) {
  // The paper's Figure 6 depends on PD being the model 4K-PE systems cannot
  // sustain at 30 FPS.
  const auto pd_macs = model_graph(TaskId::kPD).total_macs();
  for (TaskId t : all_tasks()) {
    if (t == TaskId::kPD) continue;
    EXPECT_GT(pd_macs, model_graph(t).total_macs()) << task_code(t);
  }
}

TEST(Zoo, KeywordDetectionIsTiny) {
  // res8-narrow is a ~20k-parameter model.
  EXPECT_LT(model_graph(TaskId::kKD).total_params(), 100'000);
}

TEST(Zoo, EmformerIsParameterHeavy) {
  // EM-24L carries tens of millions of parameters (24 x d512/ffn2048).
  EXPECT_GT(model_graph(TaskId::kSR).total_params(), 50'000'000);
  EXPECT_LT(model_graph(TaskId::kSR).total_params(), 120'000'000);
}

TEST(Zoo, RitnetIsParameterLight) {
  // RITNet is ~0.25M params.
  EXPECT_LT(model_graph(TaskId::kES).total_params(), 1'000'000);
}

struct ModelExpectation {
  TaskId task;
  // MAC bounds in millions (order-of-magnitude guards so refactors of the
  // builders cannot silently change a model's compute class).
  double min_mmacs;
  double max_mmacs;
};

class ZooRanges : public ::testing::TestWithParam<ModelExpectation> {};

TEST_P(ZooRanges, MacsWithinExpectedClass) {
  const auto p = GetParam();
  const double mmacs =
      static_cast<double>(model_graph(p.task).total_macs()) / 1e6;
  EXPECT_GE(mmacs, p.min_mmacs) << task_code(p.task);
  EXPECT_LE(mmacs, p.max_mmacs) << task_code(p.task);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, ZooRanges,
    ::testing::Values(ModelExpectation{TaskId::kHT, 4000, 30000},
                      ModelExpectation{TaskId::kES, 2000, 20000},
                      ModelExpectation{TaskId::kGE, 300, 5000},
                      ModelExpectation{TaskId::kKD, 1, 100},
                      ModelExpectation{TaskId::kSR, 300, 5000},
                      ModelExpectation{TaskId::kSS, 5000, 60000},
                      ModelExpectation{TaskId::kOD, 500, 10000},
                      ModelExpectation{TaskId::kAS, 10, 500},
                      ModelExpectation{TaskId::kDE, 500, 10000},
                      ModelExpectation{TaskId::kDR, 1000, 20000},
                      ModelExpectation{TaskId::kPD, 30000, 200000}),
    [](const auto& info) { return task_code(info.param.task); });

class ZooValidity : public ::testing::TestWithParam<TaskId> {};

TEST_P(ZooValidity, AllLayersValid) {
  const auto& g = model_graph(GetParam());
  for (const auto& l : g.layers()) {
    EXPECT_TRUE(l.valid()) << g.name() << ": " << l.name;
    EXPECT_FALSE(l.name.empty());
  }
}

TEST_P(ZooValidity, CostModelEvaluatesEveryLayer) {
  costmodel::AnalyticalCostModel cm;
  costmodel::SubAccelConfig a;
  a.id = "t";
  a.num_pes = 4096;
  for (auto df : {costmodel::Dataflow::kWS, costmodel::Dataflow::kOS,
                  costmodel::Dataflow::kRS}) {
    a.dataflow = df;
    const auto mc = cm.model_cost(model_graph(GetParam()), a);
    EXPECT_GT(mc.latency_ms, 0.0);
    EXPECT_GT(mc.energy_mj, 0.0);
    EXPECT_TRUE(std::isfinite(mc.latency_ms));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooValidity,
                         ::testing::ValuesIn(all_tasks()),
                         [](const auto& info) {
                           return task_code(info.param);
                         });

}  // namespace
}  // namespace xrbench::models

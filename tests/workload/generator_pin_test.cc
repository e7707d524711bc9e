// Pins the exact output of every workload generator for one fixed config each. The
// determinism tests only prove that a seed reproduces itself; these digests also catch a
// changed constant (a truncation bound, a mix fraction, a weight range) that would shift
// every stream while leaving it self-consistent.

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/alibaba.h"
#include "src/workload/amazon.h"
#include "src/workload/curve_pool.h"
#include "src/workload/microbenchmark.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

// FNV-1a over 64-bit words.
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((word >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t Digest(const std::vector<Task>& tasks) {
  Fnv1a fnv;
  for (const Task& task : tasks) {
    fnv.Add(static_cast<uint64_t>(task.id));
    fnv.Add(task.weight);
    fnv.Add(task.arrival_time);
    fnv.Add(task.timeout);
    for (double eps : task.demand.epsilons()) {
      fnv.Add(eps);
    }
    fnv.Add(static_cast<uint64_t>(task.num_recent_blocks));
    fnv.Add(static_cast<uint64_t>(task.blocks.size()));
    for (BlockId block : task.blocks) {
      fnv.Add(static_cast<uint64_t>(block));
    }
  }
  return fnv.hash();
}

const CurvePool& Pool() {
  static const CurvePool pool(AlphaGrid::Default(),
                              BlockCapacityCurve(AlphaGrid::Default(), 10.0, 1e-7));
  return pool;
}

TEST(GeneratorPinTest, GeneratorsArePinned) {
  AlibabaConfig alibaba;
  alibaba.num_tasks = 2000;
  alibaba.arrival_span = 30.0;
  alibaba.seed = 7;
  std::vector<Task> alibaba_tasks = GenerateAlibabaDp(Pool(), alibaba);
  EXPECT_EQ(alibaba_tasks.size(), 2000u);
  EXPECT_EQ(Digest(alibaba_tasks), 0x5100dfca40070d6eULL);

  MicrobenchmarkConfig micro;
  micro.sigma_blocks = 2.0;
  micro.sigma_alpha = 2.0;
  micro.seed = 3;
  std::vector<Task> micro_tasks = GenerateMicrobenchmark(Pool(), micro);
  EXPECT_EQ(micro_tasks.size(), 200u);
  EXPECT_EQ(Digest(micro_tasks), 0xcf5f589380c32934ULL);

  AmazonConfig amazon;
  amazon.mean_tasks_per_block = 50.0;
  amazon.arrival_span = 10.0;
  amazon.weighted = true;
  amazon.seed = 5;
  std::vector<Task> amazon_tasks = GenerateAmazon(Pool(), amazon);
  EXPECT_EQ(amazon_tasks.size(), 491u);
  EXPECT_EQ(Digest(amazon_tasks), 0x2651525a255c4972ULL);

  // cohort_skew draws uniform weights and bursty_hotspot Pareto weights: between them they
  // read both ends of the weight range.
  struct ScenarioPin {
    const char* name;
    size_t tasks;
    uint64_t task_digest;
    uint64_t block_digest;
  };
  for (const ScenarioPin& pin : {ScenarioPin{"cohort_skew", 48, 0xe7df496c177211c3ULL,
                                             0x4d2a2692e53e7a25ULL},
                                 ScenarioPin{"bursty_hotspot", 44, 0x49ba326ce56f18a0ULL,
                                             0x44c47145b6c11fe2ULL}}) {
    SCOPED_TRACE(pin.name);
    ScenarioWorkload workload = GenerateScenario(Pool(), ScenarioByName(pin.name, 11));
    Fnv1a blocks;
    for (double at : workload.sim.block_arrival_times) {
      blocks.Add(at);
    }
    EXPECT_EQ(workload.tasks.size(), pin.tasks);
    EXPECT_EQ(Digest(workload.tasks), pin.task_digest);
    EXPECT_EQ(blocks.hash(), pin.block_digest);
  }
}

}  // namespace
}  // namespace dpack

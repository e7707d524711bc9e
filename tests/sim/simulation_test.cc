// The simulator's run order: WalkSchedule merges block instants, tasks and cycle instants
// into the one event sequence every driver follows (by instant; blocks, then tasks, then
// the cycle at ties; equal arrivals in workload order, one span per run).

#include "src/sim/sim_driver.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

namespace dpack {
namespace {

Task FractionTask(TaskId id, double fraction, size_t recent, double arrival) {
  RdpCurve capacity = BlockCapacityCurve(AlphaGrid::Default(), 10.0, 1e-7);
  Task t(id, 1.0, capacity.Scaled(fraction));
  t.num_recent_blocks = recent;
  t.arrival_time = arrival;
  return t;
}

TEST(WalkScheduleTest, FiresByInstantWithBlocksThenTasksThenTheCycleAtTies) {
  std::vector<double> blocks = {0.0, 1.0, 1.0, 3.0};
  std::vector<Task> tasks = {FractionTask(0, 0.1, 1, 1.0), FractionTask(1, 0.1, 1, 0.5),
                             FractionTask(2, 0.1, 1, 1.0), FractionTask(3, 0.1, 1, 3.0),
                             FractionTask(4, 0.1, 1, 5.0)};
  std::vector<double> cycles = {0.0, 1.0, 2.0, 3.0};
  std::string log;
  auto append = [&log](const std::string& event, double t) {
    log += event + "@" + std::to_string(static_cast<int>(t * 10)) + " ";
  };
  bool finished = WalkSchedule(
      blocks, tasks, cycles,
      [&](double t) {
        append("B", t);
        return true;
      },
      [&](double t, std::span<Task> run) {
        std::string ids;
        for (const Task& task : run) {
          ids += std::to_string(task.id);
        }
        append("T" + ids, t);
        return true;
      },
      [&](double t) {
        append("C", t);
        return true;
      });
  EXPECT_TRUE(finished);
  // One span per run of equal arrivals, in workload order (0 before 2); task 4 comes after
  // the last cycle.
  EXPECT_EQ(log, "B@0 C@0 T1@5 B@10 B@10 T02@10 C@10 C@20 B@30 T3@30 C@30 T4@50 ");
}

TEST(WalkScheduleTest, FalseReturnStopsTheWalk) {
  std::vector<double> blocks = {0.0, 2.0};
  std::vector<Task> tasks = {FractionTask(0, 0.1, 1, 0.0), FractionTask(1, 0.1, 1, 1.5)};
  std::vector<double> cycles = {0.0, 1.0, 2.0};
  int blocks_seen = 0;
  int task_runs = 0;
  std::vector<double> cycles_seen;
  bool finished = WalkSchedule(
      blocks, tasks, cycles,
      [&](double) {
        ++blocks_seen;
        return true;
      },
      [&](double, std::span<Task>) {
        ++task_runs;
        return true;
      },
      [&](double t) {
        cycles_seen.push_back(t);
        return t < 1.0;
      });
  EXPECT_FALSE(finished);
  EXPECT_EQ(blocks_seen, 1);
  EXPECT_EQ(task_runs, 1);
  EXPECT_EQ(cycles_seen, (std::vector<double>{0.0, 1.0}));
}

}  // namespace
}  // namespace dpack

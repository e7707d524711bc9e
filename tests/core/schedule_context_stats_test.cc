// ScheduleContextStats plumbing: every field is a plain counter except `shards`, which
// names the engine. Delta must subtract each counter and carry `shards`; Accumulate must
// sum the per-shard counters. The field list below is exhaustive — the static_assert next
// to the struct fails the build when a field is added, until it is listed here too.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "src/core/schedule_context.h"

namespace dpack {
namespace {

using Field = uint64_t ScheduleContextStats::*;

// Every counter field (all fields but `shards`).
constexpr Field kCounters[] = {
    &ScheduleContextStats::cycles,
    &ScheduleContextStats::tasks_rescored,
    &ScheduleContextStats::tasks_reused,
    &ScheduleContextStats::blocks_refreshed,
    &ScheduleContextStats::best_alpha_recomputes,
    &ScheduleContextStats::full_recomputes,
    &ScheduleContextStats::merge_allocs,
};
static_assert(std::size(kCounters) + 1 == sizeof(ScheduleContextStats) / sizeof(uint64_t),
              "list every ScheduleContextStats counter here");

// Counters the sharded engine sums from its per-shard partials; `cycles` and
// `full_recomputes` are counted once per cycle by the engine itself.
constexpr Field kPerShardCounters[] = {
    &ScheduleContextStats::tasks_rescored,
    &ScheduleContextStats::tasks_reused,
    &ScheduleContextStats::blocks_refreshed,
    &ScheduleContextStats::best_alpha_recomputes,
    &ScheduleContextStats::merge_allocs,
};

TEST(ScheduleContextStatsTest, DeltaSubtractsEveryCounterAndCarriesShards) {
  ScheduleContextStats before;
  before.shards = 4;
  uint64_t bump = 1;
  for (Field field : kCounters) {
    before.*field = 100 * bump;
    ++bump;
  }
  ScheduleContextStats after = before;
  bump = 1;
  for (Field field : kCounters) {
    after.*field += bump;  // A distinct increment per field catches crossed wires.
    ++bump;
  }

  ScheduleContextStats delta = after.Delta(before);
  EXPECT_EQ(delta.shards, 4u);
  bump = 1;
  for (Field field : kCounters) {
    EXPECT_EQ(delta.*field, bump) << "counter #" << bump;
    ++bump;
  }
}

TEST(ScheduleContextStatsTest, AccumulateSumsPerShardCounters) {
  ScheduleContextStats total;
  total.shards = 3;
  total.cycles = 7;
  total.full_recomputes = 2;
  ScheduleContextStats partial;
  uint64_t bump = 1;
  for (Field field : kPerShardCounters) {
    partial.*field = bump++;
  }
  total.Accumulate(partial);
  total.Accumulate(partial);

  bump = 1;
  for (Field field : kPerShardCounters) {
    EXPECT_EQ(total.*field, 2 * bump) << "per-shard counter #" << bump;
    ++bump;
  }
  // Engine-level fields are untouched by a shard's partial.
  EXPECT_EQ(total.shards, 3u);
  EXPECT_EQ(total.cycles, 7u);
  EXPECT_EQ(total.full_recomputes, 2u);
}

}  // namespace
}  // namespace dpack

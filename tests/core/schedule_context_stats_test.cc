// ScheduleContextStats plumbing: every field is a plain counter, and Delta must subtract
// each one. The field list below is exhaustive — the static_assert next to the struct fails
// the build when a field is added, until it is listed here too.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "src/core/schedule_context.h"

namespace dpack {
namespace {

using Field = uint64_t ScheduleContextStats::*;

constexpr Field kCounters[] = {
    &ScheduleContextStats::cycles,
    &ScheduleContextStats::tasks_rescored,
    &ScheduleContextStats::tasks_reused,
    &ScheduleContextStats::blocks_refreshed,
    &ScheduleContextStats::best_alpha_recomputes,
    &ScheduleContextStats::full_recomputes,
    &ScheduleContextStats::merge_allocs,
};
static_assert(std::size(kCounters) == sizeof(ScheduleContextStats) / sizeof(uint64_t),
              "list every ScheduleContextStats counter here");

TEST(ScheduleContextStatsTest, DeltaSubtractsEveryCounter) {
  ScheduleContextStats before;
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
  bump = 1;
  for (Field field : kCounters) {
    EXPECT_EQ(delta.*field, bump) << "counter #" << bump;
    ++bump;
  }
}

}  // namespace
}  // namespace dpack

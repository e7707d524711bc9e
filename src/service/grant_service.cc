#include "src/service/grant_service.h"

#include <memory>

namespace dpack {

GrantService::GrantService(GreedyMetric metric, BlockManager* blocks,
                           GrantServiceConfig config)
    : online_(std::make_unique<GreedyScheduler>(metric), blocks, config) {}

size_t BlockArrivalFeed::AdvanceTo(double now, BlockManager& blocks) {
  size_t added = 0;
  while (next_ < times_.size() && times_[next_] <= now) {
    blocks.AddBlock(times_[next_]);
    ++next_;
    ++added;
  }
  return added;
}

ServiceCounters GrantService::counters() const {
  ServiceCounters counters;
  counters.admission_rejects = online_.admission_rejected();
  return counters;
}

}  // namespace dpack

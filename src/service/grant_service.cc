#include "src/service/grant_service.h"

#include <memory>

namespace dpack {

namespace {

OnlineSchedulerConfig OnlineConfigFor(const GrantServiceConfig& config) {
  OnlineSchedulerConfig online_config;
  online_config.period = config.period;
  online_config.unlock_steps = config.unlock_steps;
  online_config.fair_share_n = config.fair_share_n;
  online_config.admission_queue_capacity = config.admission_queue_capacity;
  return online_config;
}

}  // namespace

GrantService::GrantService(GreedyMetric metric, BlockManager* blocks,
                           GrantServiceConfig config)
    : online_(std::make_unique<GreedyScheduler>(metric, GreedySchedulerOptions{.eta = config.eta}),
              blocks, OnlineConfigFor(config)) {}

GrantServiceConfig GrantServiceConfigFor(const SimConfig& sim) {
  GrantServiceConfig config;
  config.admission_queue_capacity = sim.admission_queue_capacity;
  config.period = sim.period;
  config.unlock_steps = sim.unlock_steps;
  config.fair_share_n = sim.fair_share_n;
  return config;
}

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

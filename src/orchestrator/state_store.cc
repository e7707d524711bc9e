#include "src/orchestrator/state_store.h"

#include <chrono>
#include <thread>

#include "src/common/check.h"

namespace dpack {

SimulatedStateStore::SimulatedStateStore(double latency_us) : latency_us_(latency_us) {
  DPACK_CHECK(latency_us >= 0.0);
}

void SimulatedStateStore::RoundTrip(uint64_t ops) {
  operations_.fetch_add(ops, std::memory_order_relaxed);
  if (latency_us_ <= 0.0 || ops == 0) {
    return;
  }
  auto total = std::chrono::duration<double, std::micro>(latency_us_ * static_cast<double>(ops));
  // dpack-lint: allow(raw-sleep): the simulated store latency is this sleep.
  std::this_thread::sleep_for(total);
}

void SimulatedStateStore::Put(const std::string& key, std::string value) {
  uint64_t size = static_cast<uint64_t>(value.size());
  uint64_t chunks = size == 0 ? 1 : (size + kPutChunkBytes - 1) / kPutChunkBytes;
  bytes_written_.fetch_add(size, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    values_[key] = std::move(value);
  }
  RoundTrip(chunks);
}

std::optional<std::string> SimulatedStateStore::Get(const std::string& key) {
  RoundTrip(1);
  MutexLock lock(mu_);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace dpack

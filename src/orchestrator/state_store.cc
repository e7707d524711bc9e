#include "src/orchestrator/state_store.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/common/sleep.h"

namespace dpack {

SimulatedStateStore::SimulatedStateStore(double latency_us) : latency_us_(latency_us) {
  DPACK_CHECK(latency_us >= 0.0);
}

void SimulatedStateStore::RoundTrip(uint64_t ops) {
  operations_ += ops;
  if (latency_us_ <= 0.0 || ops == 0) {
    return;
  }
  SleepFullMicros(static_cast<unsigned int>(std::ceil(latency_us_ * static_cast<double>(ops))));
}

void SimulatedStateStore::Put(const std::string& key, std::string value) {
  uint64_t size = static_cast<uint64_t>(value.size());
  uint64_t chunks = size == 0 ? 1 : (size + kPutChunkBytes - 1) / kPutChunkBytes;
  bytes_written_ += size;
  values_[key] = std::move(value);
  RoundTrip(chunks);
}

std::optional<std::string> SimulatedStateStore::Get(const std::string& key) {
  RoundTrip(1);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace dpack

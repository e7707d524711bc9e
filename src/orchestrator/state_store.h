// A simulated cluster state store standing in for the Kubernetes API server / etcd used by
// the paper's PrivateKube deployment (§6.4; see src/README.md, "Substitutions and
// deviations").
//
// PrivateKube represents tasks ("claims") and privacy blocks as custom resources; every
// scheduling decision costs API-server round trips, and the paper reports that these system
// overheads dominate scheduler runtime. This store injects a configurable latency per
// operation and counts traffic so the orchestrator benchmarks exercise the same
// overhead-dominated regime.
//
// Beyond pure latency simulation, the store now holds real bytes: Put/Get persist opaque
// values (the checkpoint subsystem's snapshots) under string keys, charging one round trip
// per kPutChunkBytes written — large snapshots cost proportionally more API-server traffic,
// which is how checkpoint overhead lands in the Q4 accounting.

#ifndef SRC_ORCHESTRATOR_STATE_STORE_H_
#define SRC_ORCHESTRATOR_STATE_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace dpack {

class SimulatedStateStore {
 public:
  // Values are written in chunks of this many bytes, one simulated round trip per chunk
  // (etcd bounds request sizes; a snapshot spanning many chunks costs many trips).
  static constexpr uint64_t kPutChunkBytes = 64 * 1024;

  // `latency_us` is the simulated per-operation round-trip latency in microseconds (>= 0).
  explicit SimulatedStateStore(double latency_us);

  // Performs `ops` synchronous round trips: sleeps ops * latency, rounded up to whole
  // microseconds.
  void RoundTrip(uint64_t ops = 1);

  // Persists `value` under `key` (overwriting), blocking for ceil(size / kPutChunkBytes)
  // round trips (at least one).
  void Put(const std::string& key, std::string value);

  // Reads the value stored under `key` (one round trip), or nullopt when absent.
  std::optional<std::string> Get(const std::string& key);

  uint64_t operations() const { return operations_; }
  // Cumulative bytes written through Put (overwrites both count).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  double latency_us_;
  uint64_t operations_ = 0;
  uint64_t bytes_written_ = 0;
  std::map<std::string, std::string> values_;
};

}  // namespace dpack

#endif  // SRC_ORCHESTRATOR_STATE_STORE_H_

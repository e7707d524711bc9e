#include "src/orchestrator/state_store.h"

#include <chrono>
#include <string>

#include <gtest/gtest.h>

namespace dpack {
namespace {

TEST(StateStoreTest, CountsOperations) {
  SimulatedStateStore store(0.0);
  EXPECT_EQ(store.operations(), 0u);
  store.RoundTrip();
  store.RoundTrip(5);
  EXPECT_EQ(store.operations(), 6u);
}

TEST(StateStoreTest, ZeroLatencyIsFast) {
  SimulatedStateStore store(0.0);
  auto start = std::chrono::steady_clock::now();
  store.RoundTrip(100000);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 0.5);
}

TEST(StateStoreTest, LatencyIsInjected) {
  SimulatedStateStore store(/*latency_us=*/2000.0);
  auto start = std::chrono::steady_clock::now();
  store.RoundTrip(10);  // 20 ms total.
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(seconds, 0.018);
}

TEST(StateStoreTest, ZeroOpsNoCount) {
  SimulatedStateStore store(1000.0);
  store.RoundTrip(0);
  EXPECT_EQ(store.operations(), 0u);
}

TEST(StateStoreTest, PutGetRoundTripsBytes) {
  SimulatedStateStore store(0.0);
  EXPECT_FALSE(store.Get("missing").has_value());  // Charged one read trip.
  store.Put("checkpoint", "snapshot-bytes");
  std::optional<std::string> value = store.Get("checkpoint");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "snapshot-bytes");
  store.Put("checkpoint", "newer");  // Overwrite.
  EXPECT_EQ(*store.Get("checkpoint"), "newer");
  EXPECT_EQ(store.bytes_written(), std::string("snapshot-bytes").size() + 5);
}

TEST(StateStoreTest, PutChargesOneTripPerChunk) {
  SimulatedStateStore store(0.0);
  store.Put("small", "x");  // 1 trip.
  EXPECT_EQ(store.operations(), 1u);
  store.Put("empty", "");  // Still 1 trip (the write itself).
  EXPECT_EQ(store.operations(), 2u);
  std::string large(SimulatedStateStore::kPutChunkBytes * 2 + 1, 'a');  // 3 chunks.
  store.Put("large", std::move(large));
  EXPECT_EQ(store.operations(), 5u);
}

}  // namespace
}  // namespace dpack

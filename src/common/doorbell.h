// A cross-process doorbell: an eventcount over one 32-bit word in MAP_SHARED memory, so a
// consumer that finds its shm ring empty can sleep until the producer publishes instead of
// until the next poll tick.
//
// The protocol closes the lost-wake-up window without a lock:
//   consumer: seen = Arm(); re-check the ring; if still empty, Wait(seen, max_us)
//   producer: publish into the ring; Ring()
// Ring bumps the sequence after the publish (release) and Arm reads it before the re-check
// (acquire), so a publish the re-check missed has already moved the sequence past `seen`,
// and FUTEX_WAIT, which compares the word with `seen` inside the kernel, returns at once.
//
// Wait is also bounded: it ends after at most `max_us` even if nobody rings, and it may end
// early (a signal, a ring meant for a different ring sharing the bell). Callers therefore
// always loop "re-check, then wait", and an iteration budget of N waits is a deadline of at
// most N * max_us. The timeout is relative, so no clock is read.
//
// A Doorbell must live in memory both processes map (an ShmRegion created before fork);
// the futex calls are the shared, non-private kind for that reason.

#ifndef SRC_COMMON_DOORBELL_H_
#define SRC_COMMON_DOORBELL_H_

#include <atomic>
#include <cstdint>

namespace dpack {

class Doorbell {
 public:
  // The sequence to pass to Wait. Read it before re-checking the condition being waited on.
  uint32_t Arm() const { return seq_.load(std::memory_order_acquire); }

  // Wakes every process waiting on this bell. Call after publishing what it announces.
  void Ring();

  // Sleeps until the bell rings after Arm returned `seen`, or for at most `max_us`
  // microseconds (0 returns at once). Returns as well on EINTR or when the sequence has
  // already moved; the caller re-checks its condition either way.
  void Wait(uint32_t seen, unsigned int max_us);

 private:
  std::atomic<uint32_t> seq_{0};
  static_assert(std::atomic<uint32_t>::is_always_lock_free &&
                    sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
                "a futex word must be a plain, lock-free 32-bit integer");
};

}  // namespace dpack

#endif  // SRC_COMMON_DOORBELL_H_

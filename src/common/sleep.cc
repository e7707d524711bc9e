#include "src/common/sleep.h"

#include <sched.h>

#include <cerrno>
#include <ctime>

namespace dpack {

namespace {

// Zero-timeout checks a spinning WaitForFds makes before it blocks. On a free core one
// check costs about 0.32 us and its yield about as much again, so the window is about
// 70 us (4-core Xeon container): long enough to catch a closed-loop peer's next request or
// reply, and a wait that misses it has burnt no more than one blocking wait's share. Sized
// by a sweep of {0, 32, 100, 300} on the remote churn stream (CHANGES.md): 100 and 300
// measured the same, and 32 missed the cycle replies that take longer than its window.
constexpr unsigned int kSpinChecks = 100;

timespec MicrosToTimespec(unsigned int micros) {
  timespec ts;
  ts.tv_sec = micros / 1000000u;
  ts.tv_nsec = static_cast<long>(micros % 1000000u) * 1000;
  return ts;
}

}  // namespace

void SleepFullMicros(unsigned int micros) {
  if (micros == 0) {
    return;
  }
  // nanosleep writes the unslept remainder into its second argument on EINTR, so resuming
  // with req = remainder accumulates to the full duration without reading a clock.
  timespec req = MicrosToTimespec(micros);
  while (nanosleep(&req, &req) != 0 && errno == EINTR) {
  }
}

bool WaitForFds(pollfd* fds, size_t count, unsigned int max_us, bool spin) {
  if (spin) {
    timespec zero{0, 0};
    for (unsigned int check = 0; check < kSpinChecks; ++check) {
      int ready = ppoll(fds, static_cast<nfds_t>(count), &zero, nullptr);
      if (ready != 0) {
        return ready > 0;  // An fd is ready, or EINTR: either way the caller re-checks.
      }
      // The peer may need this very core to produce what the spin waits for.
      sched_yield();
    }
  }
  timespec timeout = MicrosToTimespec(max_us);
  ppoll(fds, static_cast<nfds_t>(count), &timeout, nullptr);
  return false;
}

}  // namespace dpack

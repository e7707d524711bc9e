#include "src/common/sleep.h"

#include <cerrno>
#include <ctime>

namespace dpack {

namespace {

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

void WaitForFds(pollfd* fds, size_t count, unsigned int max_us) {
  timespec timeout = MicrosToTimespec(max_us);
  ppoll(fds, static_cast<nfds_t>(count), &timeout, nullptr);
}

}  // namespace dpack

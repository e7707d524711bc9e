#include "src/common/doorbell.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>

namespace dpack {

namespace {

long Futex(std::atomic<uint32_t>* word, int op, uint32_t value, const timespec* timeout) {
  // No FUTEX_PRIVATE_FLAG: the word is shared between processes.
  return syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), op, value, timeout, nullptr,
                 0);
}

}  // namespace

void Doorbell::Ring() {
  seq_.fetch_add(1, std::memory_order_release);
  Futex(&seq_, FUTEX_WAKE, INT_MAX, nullptr);
}

void Doorbell::Wait(uint32_t seen, unsigned int max_us) {
  if (max_us == 0) {
    return;
  }
  // FUTEX_WAIT's timeout is relative; ETIMEDOUT, EAGAIN (already rung) and EINTR all just
  // end this wait.
  timespec timeout;
  timeout.tv_sec = max_us / 1000000u;
  timeout.tv_nsec = static_cast<long>(max_us % 1000000u) * 1000;
  Futex(&seq_, FUTEX_WAIT, seen, &timeout);
}

}  // namespace dpack

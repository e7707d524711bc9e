// Seeded violation: raw sleeps outside src/common/sleep.cc. A wait must end when its event
// arrives (WaitForFds), and a sleep with nothing to wait on goes through SleepFullMicros.
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <thread>

namespace dpack {

void PollSocket(unsigned int poll_sleep_us) {
  usleep(poll_sleep_us);  // <- raw-sleep must fire here.
  timespec req{0, 1000};
  nanosleep(&req, nullptr);  // <- and here.
  std::this_thread::sleep_for(std::chrono::microseconds(50));  // <- and here.
}

}  // namespace dpack

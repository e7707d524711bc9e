// WaitForFds, the one wait of the socket edge: an fd that is already ready ends the wait at
// once, spinning or not; a silent fd ends a spinning wait after the spin window plus the
// blocking timeout, never hangs; and bytes a separate process writes end a spinning wait.
// Each case runs under an alarm deadline (no clock read): a wait that hangs ends the binary.

#include "src/common/sleep.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include "src/common/subprocess.h"

namespace dpack {
namespace {

// A deadline without a clock read: SIGALRM ends the test binary after `seconds`.
class AlarmDeadline {
 public:
  explicit AlarmDeadline(unsigned int seconds) { alarm(seconds); }
  ~AlarmDeadline() { alarm(0); }
  AlarmDeadline(const AlarmDeadline&) = delete;
  AlarmDeadline& operator=(const AlarmDeadline&) = delete;
};

// A wait this long would trip every deadline below, so a case that finishes in time did
// not wait out the timeout.
constexpr unsigned int kHourUs = 3'600'000'000u;

class Pipe {
 public:
  Pipe() { EXPECT_EQ(pipe(fds_), 0); }
  ~Pipe() {
    close(fds_[0]);
    close(fds_[1]);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  int read_end() const { return fds_[0]; }
  int write_end() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST(WaitForFdsTest, ReadyFdReturnsAtOnceWithOrWithoutSpin) {
  AlarmDeadline deadline(20);
  Pipe pipe;
  ASSERT_EQ(write(pipe.write_end(), "x", 1), 1);
  for (bool spin : {false, true}) {
    SCOPED_TRACE(spin ? "spin" : "no spin");
    pollfd fd{pipe.read_end(), POLLIN, 0};
    // Ready before the wait: the spin's first check sees it; without a spin, the blocking
    // ppoll returns at once instead of waiting out its hour.
    EXPECT_EQ(WaitForFds(&fd, 1, kHourUs, spin), spin);
    EXPECT_TRUE(fd.revents & POLLIN);
  }
}

TEST(WaitForFdsTest, SilentFdEndsASpinningWaitOnItsTimeout) {
  AlarmDeadline deadline(20);
  Pipe pipe;
  // A thousand spinning waits of a 100 us timeout: each spins its window, finds nothing,
  // and blocks for the timeout; well under a second in all, with no hang.
  for (int i = 0; i < 1000; ++i) {
    pollfd fd{pipe.read_end(), POLLIN, 0};
    ASSERT_FALSE(WaitForFds(&fd, 1, /*max_us=*/100, /*spin=*/true));
    ASSERT_EQ(fd.revents, 0);
  }
  // A zero timeout leaves only the spin window.
  pollfd fd{pipe.read_end(), POLLIN, 0};
  EXPECT_FALSE(WaitForFds(&fd, 1, /*max_us=*/0, /*spin=*/true));
  EXPECT_EQ(fd.revents, 0);
}

TEST(WaitForFdsTest, ForkedWritersBytesEndASpinningWait) {
  AlarmDeadline deadline(20);
  // Several rounds, so the writer's bytes land both inside the spin window and after it:
  // either way they, not the hour-long timeout, end the wait.
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    Pipe pipe;
    int write_end = pipe.write_end();
    pid_t writer = SpawnChild([write_end, round]() -> int {
      // Later rounds give the waiter time to run out of spin and block in ppoll.
      SleepFullMicros(static_cast<unsigned int>(round) * 500u);
      return write(write_end, "x", 1) == 1 ? 0 : 1;
    });
    pollfd fd{pipe.read_end(), POLLIN, 0};
    WaitForFds(&fd, 1, kHourUs, /*spin=*/true);
    EXPECT_TRUE(fd.revents & POLLIN);
    char byte = 0;
    EXPECT_EQ(read(pipe.read_end(), &byte, 1), 1);
    EXPECT_EQ(byte, 'x');
    ChildStatus status = WaitChild(writer);
    EXPECT_EQ(status.state, ChildState::kExited);
    EXPECT_EQ(status.exit_code, 0);
  }
}

}  // namespace
}  // namespace dpack

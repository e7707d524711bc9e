// Bounded waits for the service transports' liveness deadlines.
//
// Every blocking wait in the service is an iteration budget: at most `budget` waits, each
// lasting at most `poll_sleep_us`, so the deadline is at most budget * poll_sleep_us of real
// time with no clock read on the scheduling path. A wait ends early when what it waits for
// arrives: shm rings wait on a Doorbell (src/common/doorbell.h), sockets on WaitForFds
// below. A plain sleep is left only where there is nothing to wait on: a full ring's
// back-off and a connect retry before the daemon has bound its socket.
//
// `usleep` would break the arithmetic of those sleeps: it returns early on EINTR (any
// signal — and the daemon fields SIGCHLD from its worker fleet constantly), silently
// shrinking the deadline by however often signals land. SleepFullMicros resumes
// `nanosleep` with the kernel-reported remaining time until the full duration has elapsed.
// scripts/dpack_lint.py (raw-sleep) keeps every other sleep out of src/.

#ifndef SRC_COMMON_SLEEP_H_
#define SRC_COMMON_SLEEP_H_

#include <poll.h>

#include <cstddef>

namespace dpack {

// Sleeps for the full `micros` microseconds, resuming across EINTR. A no-op for 0.
void SleepFullMicros(unsigned int micros);

// One ppoll over `fds` (events requested, revents filled in) that returns when any fd is
// ready, after at most `max_us` microseconds (0 checks without blocking), or on EINTR. The
// timeout is relative, so no clock is read; callers re-check their sockets either way.
void WaitForFds(pollfd* fds, size_t count, unsigned int max_us);

}  // namespace dpack

#endif  // SRC_COMMON_SLEEP_H_

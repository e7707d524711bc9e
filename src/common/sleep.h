// Bounded waits for the socket edge's liveness deadlines.
//
// Every blocking wait in the service is an iteration budget: at most `budget` waits, each
// lasting at most the spin window plus `poll_sleep_us`, so the deadline is at most
// budget * (spin window + poll_sleep_us) of real time with no clock read on the scheduling
// path. A wait ends early when what it waits for arrives: sockets wait on WaitForFds below.
// A plain sleep is left only where there is nothing to wait on: a connect retry before the
// daemon has bound its socket.
//
// Spin, then block. In a closed request/reply loop the peer's next bytes arrive a few
// microseconds after this side goes idle, sooner than a sleeping thread is woken again, so
// a wait that follows real work may spin first: a fixed number of zero-timeout ppoll checks
// (kSpinChecks in sleep.cc), each followed by sched_yield() so that on a single core the
// spin hands the CPU to the peer it waits for instead of starving it. Only then does it
// block in ppoll. The spin window is a fixed count of checks, not a time, so it reads no
// clock either. Callers spin only on the first wait after work; an idle loop blocks at once
// and costs nothing extra.
//
// `usleep` would break the arithmetic of those sleeps: it returns early on EINTR (any
// signal, such as a SIGCHLD from a child the process forked), silently shrinking the
// deadline by however often signals land. SleepFullMicros resumes
// `nanosleep` with the kernel-reported remaining time until the full duration has elapsed.
// scripts/dpack_lint.py keeps every other sleep (raw-sleep) and every yield (raw-yield) out
// of the code: this file's .cc is their one home.

#ifndef SRC_COMMON_SLEEP_H_
#define SRC_COMMON_SLEEP_H_

#include <poll.h>

#include <cstddef>

namespace dpack {

// Sleeps for the full `micros` microseconds, resuming across EINTR. A no-op for 0.
void SleepFullMicros(unsigned int micros);

// Waits until any of `fds` is ready (events requested, revents filled in). With `spin`, first
// checks up to kSpinChecks times without blocking, yielding the CPU after each check;
// then (or at once without `spin`) one ppoll that returns when any fd is ready, after at
// most `max_us` microseconds (0 checks without blocking), or on EINTR. The timeout is
// relative, so no clock is read; callers re-check their sockets either way. Returns true
// when the wait ended during the spin (always false without `spin`).
bool WaitForFds(pollfd* fds, size_t count, unsigned int max_us, bool spin);

}  // namespace dpack

#endif  // SRC_COMMON_SLEEP_H_

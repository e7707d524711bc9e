// Thin fork/waitpid/kill helpers for the processes around the grant service: a socket
// daemon forked by a test or a bench, a client that dies mid-frame, a workload generator
// feeding a pipe. A child is forked WITHOUT exec and runs ordinary library code on its
// copy of the parent's memory, so fork only from a single-threaded process.

#ifndef SRC_COMMON_SUBPROCESS_H_
#define SRC_COMMON_SUBPROCESS_H_

#include <sys/types.h>

#include <functional>

namespace dpack {

// Forks; the child runs `body` and _exit()s with its return value (never returns to the
// caller's stack beyond `body`, and never runs the parent's atexit handlers or static
// destructors — the shared mappings and file descriptors it inherited stay owned by the
// parent). Returns the child pid in the parent; DPACK_CHECKs on fork failure.
pid_t SpawnChild(const std::function<int()>& body);

enum class ChildState {
  kRunning,   // Still alive (or stopped); no status change to report.
  kExited,    // Terminated normally; exit_code holds the status.
  kSignaled,  // Terminated by a signal (e.g. SIGKILL); term_signal holds it.
};

struct ChildStatus {
  ChildState state = ChildState::kRunning;
  int exit_code = 0;
  int term_signal = 0;
};

// Blocking waitpid. It reaps the child, so waiting on it again DPACK_CHECKs.
ChildStatus WaitChild(pid_t pid);

// Sends `signal` (e.g. SIGKILL) to the child. Harmless on already-dead children.
void KillChild(pid_t pid, int signal);

}  // namespace dpack

#endif  // SRC_COMMON_SUBPROCESS_H_

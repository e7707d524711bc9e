// Thin fork/waitpid/kill helpers for the grant service's worker processes.
//
// Workers are forked WITHOUT exec: the daemon maps its shared-memory regions while still
// single-threaded, forks, and each child inherits the mappings at the same addresses — no
// path/serialization handshake, and the child runs ordinary library code against the shared
// rings. The daemon must therefore not fork service workers from a multi-threaded state
// (see src/service/transport.cc, which forks only at service start and respawn, both on the
// daemon's single scheduling thread).

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

// Non-blocking waitpid(WNOHANG). Once a child has been reported kExited/kSignaled it is
// reaped — polling it again DPACK_CHECKs (track terminal states caller-side).
ChildStatus PollChild(pid_t pid);

// Blocking waitpid; same reap-once contract as PollChild.
ChildStatus WaitChild(pid_t pid);

// Blocks until the child terminates or `max_us` microseconds pass, whichever is first,
// without reaping it (PollChild/WaitChild still report its status). Waits on a pidfd, so a
// child that exits ends the wait at once; a kernel without pidfds gets a plain sleep.
void AwaitChildExit(pid_t pid, unsigned int max_us);

// Sends `signal` (e.g. SIGKILL) to the child. Harmless on already-dead children.
void KillChild(pid_t pid, int signal);

}  // namespace dpack

#endif  // SRC_COMMON_SUBPROCESS_H_

#include "src/common/subprocess.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/check.h"

namespace dpack {

namespace {

ChildStatus StatusOf(int wait_status) {
  ChildStatus status;
  if (WIFEXITED(wait_status)) {
    status.state = ChildState::kExited;
    status.exit_code = WEXITSTATUS(wait_status);
  } else if (WIFSIGNALED(wait_status)) {
    status.state = ChildState::kSignaled;
    status.term_signal = WTERMSIG(wait_status);
  }
  return status;  // Stopped/continued children stay kRunning.
}

}  // namespace

pid_t SpawnChild(const std::function<int()>& body) {
  pid_t pid = fork();
  DPACK_CHECK(pid >= 0);
  if (pid == 0) {
    // _exit skips the parent's atexit/static-destructor chain: this child shares the
    // parent's inherited heap snapshot and must not tear it down. Leak checkers treat
    // children that _exit as uninteresting, so a child's live state is not a "leak".
    _exit(body());
  }
  return pid;
}

ChildStatus WaitChild(pid_t pid) {
  int wait_status = 0;
  pid_t r = waitpid(pid, &wait_status, 0);
  DPACK_CHECK(r == pid);
  return StatusOf(wait_status);
}

void KillChild(pid_t pid, int signal) {
  DPACK_CHECK(pid > 0);  // Never signal process groups / every-process targets.
  kill(pid, signal);
}

}  // namespace dpack

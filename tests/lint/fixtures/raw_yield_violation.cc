// Seeded violation: yields outside src/common/sleep.cc. A yield is the working part of a
// spin, and every spin belongs in WaitForFds's bounded spin-then-block wait.
#include <pthread.h>
#include <sched.h>

namespace dpack {

bool SpinOnFlag(const volatile bool* flag) {
  for (int i = 0; i < 1000 && !*flag; ++i) {
    sched_yield();  // <- raw-yield must fire here.
  }
  for (int i = 0; i < 1000 && !*flag; ++i) {
    pthread_yield();  // <- and here.
  }
  return *flag;
}

}  // namespace dpack

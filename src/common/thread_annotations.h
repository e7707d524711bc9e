// Clang Thread Safety Analysis wrappers — the compile-time half of the concurrency
// contract (see src/README.md, "Concurrency contract").
//
// Every mutex in dpack goes through the `Mutex`/`MutexLock` wrappers below, and every field
// a mutex guards is annotated `GUARDED_BY(mu_)`. Under clang, `-Wthread-safety
// -Werror=thread-safety` then *proves* the lock discipline on every build: a guarded field
// touched without its mutex or an unbalanced Lock/Unlock path is a compile error, before
// any interleaving runs. TSan stays on in CI as the dynamic backstop (it sees the interleavings
// a run explores; this analysis rules the rest out by construction). Under compilers
// without the attributes (gcc) the annotations expand to nothing and the wrappers are
// zero-cost veneers over std::mutex.
//
// dpack-lint's `raw-mutex` rule (scripts/dpack_lint.py) keeps this the *only* file allowed
// to name std::mutex, and bans std::condition_variable everywhere, so no lock or wait can
// bypass the analysis.
//
// Style notes for annotated code:
//   - Prefer `MutexLock lock(mu_);` (scoped). Use its Unlock()/Lock() pair for the
//     fork-join "work outside the lock" pattern; the destructor releases if still held,
//     which keeps exceptional exits balanced.

#ifndef SRC_COMMON_THREAD_ANNOTATIONS_H_
#define SRC_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define DPACK_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define DPACK_THREAD_ANNOTATION_(x)  // no-op
#endif

#define CAPABILITY(x) DPACK_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY DPACK_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) DPACK_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) DPACK_THREAD_ANNOTATION_(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) DPACK_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) DPACK_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define REQUIRES(...) DPACK_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) DPACK_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define RELEASE(...) DPACK_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) DPACK_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) DPACK_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) DPACK_THREAD_ANNOTATION_(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS DPACK_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace dpack {

// An annotated std::mutex. Lock discipline on this type is machine-checked under clang.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// Scoped lock: acquires in the constructor, releases in the destructor. Unlock()/Lock()
// support the fork-join pattern (drop the lock around the parallel work, retake it for the
// join bookkeeping); the destructor releases only if currently held, so early returns and
// exceptions stay balanced on every path.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), held_(true) { mu_.Lock(); }
  ~MutexLock() RELEASE() {
    if (held_) {
      mu_.Unlock();
    }
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() RELEASE() {
    held_ = false;
    mu_.Unlock();
  }
  void Lock() ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

}  // namespace dpack

#endif  // SRC_COMMON_THREAD_ANNOTATIONS_H_

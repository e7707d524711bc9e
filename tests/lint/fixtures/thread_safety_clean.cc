// Positive control for the negative compile test: the same shape as
// thread_safety_violation.cc with the lock discipline intact. This MUST compile under
// -Werror=thread-safety — proving the flag is active and the wrappers are well-formed, so
// the violation fixture's failure can only come from the seeded violation itself.
#include "src/common/thread_annotations.h"

namespace dpack {

struct Account {
  Mutex mu;
  int balance GUARDED_BY(mu) = 0;

  void Deposit(int amount) {
    MutexLock lock(mu);
    balance += amount;
  }

  int Balance() {
    MutexLock lock(mu);
    return balance;
  }

  void ForkJoin() {
    MutexLock lock(mu);
    balance += 1;
    lock.Unlock();
    // ... work outside the critical section ...
    lock.Lock();
    balance -= 1;
  }
};

}  // namespace dpack

int main() {
  dpack::Account account;
  account.Deposit(1);
  account.ForkJoin();
  return account.Balance() == 1 ? 0 : 1;
}

// Seeded violation: threads and locks. Every dpack process is one thread with no locks:
// SpawnChild forks without exec, which is only safe from a single-threaded process. The
// threads rule must fire on each of the seven lines that names a thread, lock or
// condition type or starts a thread (std::mutex, std::condition_variable, std::lock_guard,
// std::thread, std::jthread, std::async and pthread_create).
#include <pthread.h>

#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

namespace dpack {

struct Queue {
  std::mutex mu;
  std::condition_variable ready;
  int depth = 0;

  void Push() {
    std::lock_guard<std::mutex> lock(mu);
    ++depth;
  }
};

inline void* PushOnce(void* queue) {
  static_cast<Queue*>(queue)->Push();
  return nullptr;
}

inline void Fill(Queue& queue) {
  std::thread worker([&queue] { queue.Push(); });
  std::jthread joined([&queue] { queue.Push(); });
  std::future<void> done = std::async([&queue] { queue.Push(); });
  pthread_t raw;
  pthread_create(&raw, nullptr, PushOnce, &queue);
  worker.join();
  done.wait();
  pthread_join(raw, nullptr);
}

}  // namespace dpack

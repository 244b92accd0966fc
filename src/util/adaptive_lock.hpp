// Lock acquisition that spins briefly before it blocks.
//
// The service's request-path locks (the job queue's, each cache shard's)
// guard critical sections of a few hundred nanoseconds that client and
// worker threads take hundreds of thousands of times a second.  A
// std::mutex that finds its lock taken puts the caller to sleep at once.
// Waking it costs microseconds, far more than the wait it replaced, and on
// a virtual machine that cost swings with the host.  Worse, once one thread
// sleeps on a lock every later unlock pays a wake-up call, so the threads
// convoy.  Spinning on try_lock for a bounded number of rounds first (as
// glibc's adaptive mutexes do) takes almost every contended acquisition
// without sleeping; a holder that was descheduled still ends in the
// blocking lock().
#pragma once

namespace netpart {

/// try_lock rounds before blocking.  Each round waits one pause
/// instruction: a few microseconds in all on current x86 cores.
inline constexpr int kLockSpinRounds = 64;

/// Tell the CPU the caller is spin-waiting.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

/// Lock `lockable` (a mutex, or a std::unique_lock that does not own its
/// mutex yet), spinning on try_lock before blocking.
template <typename Lockable>
void lock_adaptive(Lockable& lockable) {
  for (int round = 0; round < kLockSpinRounds; ++round) {
    if (lockable.try_lock()) return;
    cpu_relax();
  }
  lockable.lock();
}

/// std::lock_guard that acquires through lock_adaptive().
template <typename Mutex>
class AdaptiveLockGuard {
 public:
  explicit AdaptiveLockGuard(Mutex& mutex) : mutex_(mutex) {
    lock_adaptive(mutex_);
  }
  ~AdaptiveLockGuard() { mutex_.unlock(); }
  AdaptiveLockGuard(const AdaptiveLockGuard&) = delete;
  AdaptiveLockGuard& operator=(const AdaptiveLockGuard&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace netpart

// npracer event recorder (see DESIGN.md §14).
//
// The annotation macros in annotations.hpp compile down to calls into one
// process-wide RaceRecorder.  While armed, it appends every annotation
// event -- lock acquire/release, shared reads/writes, atomic
// acquire/release edges, thread fork/join, guarded-by and benign-race
// declarations -- to a single totally-ordered log (one short mutex per
// event; the global order doubles as the detector's observation order).
// Disarmed, every annotation is one relaxed atomic load.
//
// Schedule perturbation: a non-zero `yield_seed` makes the recorder yield
// the recording thread on a deterministic SplitMix64 pattern keyed by
// (seed, sequence number) -- the same seam PR 6's chaos_yield gives the
// work-stealing sweep, applied at every annotation point.  The harness
// (harness.hpp) sweeps seeds so one scenario is observed under many
// distinct interleavings, all replayable.
//
// Layering: this is a leaf library (np_race).  It depends on nothing but
// the standard library so that obs/, svc/, fleet/, mmps/, and core/ can
// all link it without cycles; obs registers a context probe at static-init
// time so events carry the active span's (trace_id, span_id) without this
// library linking obs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace netpart::analysis::race {

enum class EventKind : std::uint8_t {
  kRead,
  kWrite,
  kLockAcquire,
  kLockRelease,
  kAtomicAcquire,
  kAtomicRelease,
  kAtomicRmw,
  kGuardedBy,
  kBenignRace,
  kThreadFork,
  kThreadStart,
  kThreadEnd,
  kThreadJoin,
};

const char* to_string(EventKind kind);

/// One annotation event.  `name`/`detail`/`file` are string literals from
/// the annotation site (static storage duration), so recording never
/// copies or allocates strings.
struct Event {
  EventKind kind = EventKind::kRead;
  std::uint32_t thread = 0;    ///< recorder-assigned dense thread id
  const void* addr = nullptr;  ///< shared object / lock / fork token
  const void* aux = nullptr;   ///< kGuardedBy: the guarding lock
  const char* name = "";       ///< annotation label, e.g. "svc.cache.lru"
  const char* detail = nullptr;  ///< kBenignRace: the justification
  const char* file = "";
  int line = 0;
  std::uint64_t seq = 0;       ///< position in the global order
  std::uint64_t trace_id = 0;  ///< active span context at event time
  std::uint64_t span_id = 0;
};

struct RecorderOptions {
  /// 0 = record without perturbing the schedule; otherwise yield on a
  /// deterministic pattern keyed by (seed, event sequence).
  std::uint64_t yield_seed = 0;
  /// Average one yield per this many events when yield_seed != 0.
  std::uint32_t yield_period = 4;
  /// Events kept; beyond this new events are dropped and counted.
  std::size_t capacity = 1u << 20;
};

/// Provider of the active obs span context (registered by np_obs at
/// static-init time; see obs/trace_context.cpp).
using ContextProbe = void (*)(std::uint64_t* trace_id, std::uint64_t* span_id);
void set_context_probe(ContextProbe probe);

class RaceRecorder {
 public:
  static RaceRecorder& instance();

  /// One relaxed load: the annotation macros' fast path.
  static bool armed() {
    return armed_flag_.load(std::memory_order_relaxed);
  }

  /// Arm and reset: clears the log, bumps the session id, applies
  /// `options`.  Nestable starts are not supported (one analysis at a
  /// time); re-starting while armed discards the previous log.
  void start(RecorderOptions options = {});

  /// Disarm and drain: returns the log and leaves the recorder empty.
  std::vector<Event> stop();

  std::size_t size() const;
  std::uint64_t dropped() const;

  /// Bumps on every start(); LockScope uses it to pair acquire/release
  /// across an arm/disarm boundary (a release whose acquire predates the
  /// current session is not emitted, so a mid-scope start() can never
  /// fabricate an unpaired release).
  std::uint64_t session() const {
    return session_.load(std::memory_order_relaxed);
  }

  /// Append one event (annotation macros; tests may call it directly to
  /// build synthetic logs through the same path).
  void on_event(EventKind kind, const void* addr, const void* aux,
                const char* name, const char* detail, const char* file,
                int line);

 private:
  RaceRecorder() = default;

  static inline std::atomic<bool> armed_flag_{false};

  mutable std::mutex mutex_;
  std::vector<Event> events_;
  RecorderOptions options_;
  std::uint64_t dropped_ = 0;
  std::atomic<std::uint64_t> session_{0};
};

/// Dense per-thread id, assigned on first use (independent of
/// obs::this_thread_id so np_race stays a leaf).
std::uint32_t race_thread_id();

/// RAII acquire/release pair for NP_LOCK_SCOPE.
class LockScope {
 public:
  LockScope(const void* addr, const char* name, const char* file, int line)
      : addr_(addr), name_(name), file_(file), line_(line) {
    if (RaceRecorder::armed()) {
      RaceRecorder& recorder = RaceRecorder::instance();
      session_ = recorder.session();
      armed_at_acquire_ = true;
      recorder.on_event(EventKind::kLockAcquire, addr_, nullptr, name_,
                        nullptr, file_, line_);
    }
  }

  ~LockScope() {
    if (armed_at_acquire_ && RaceRecorder::armed()) {
      RaceRecorder& recorder = RaceRecorder::instance();
      if (recorder.session() == session_) {
        recorder.on_event(EventKind::kLockRelease, addr_, nullptr, name_,
                          nullptr, file_, line_);
      }
    }
  }

  LockScope(const LockScope&) = delete;
  LockScope& operator=(const LockScope&) = delete;

 private:
  const void* addr_;
  const char* name_;
  const char* file_;
  int line_;
  std::uint64_t session_ = 0;
  bool armed_at_acquire_ = false;
};

}  // namespace netpart::analysis::race

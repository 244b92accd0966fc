#include "analysis/race/recorder.hpp"

#include <thread>

namespace netpart::analysis::race {

namespace {

std::atomic<ContextProbe> g_context_probe{nullptr};
std::atomic<std::uint32_t> g_next_thread_id{0};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRead:
      return "read";
    case EventKind::kWrite:
      return "write";
    case EventKind::kLockAcquire:
      return "lock-acquire";
    case EventKind::kLockRelease:
      return "lock-release";
    case EventKind::kAtomicAcquire:
      return "atomic-acquire";
    case EventKind::kAtomicRelease:
      return "atomic-release";
    case EventKind::kAtomicRmw:
      return "atomic-rmw";
    case EventKind::kGuardedBy:
      return "guarded-by";
    case EventKind::kBenignRace:
      return "benign-race";
    case EventKind::kThreadFork:
      return "thread-fork";
    case EventKind::kThreadStart:
      return "thread-start";
    case EventKind::kThreadEnd:
      return "thread-end";
    case EventKind::kThreadJoin:
      return "thread-join";
  }
  return "unknown";
}

void set_context_probe(ContextProbe probe) {
  g_context_probe.store(probe, std::memory_order_release);
}

std::uint32_t race_thread_id() {
  thread_local const std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

RaceRecorder& RaceRecorder::instance() {
  static RaceRecorder recorder;
  return recorder;
}

void RaceRecorder::start(RecorderOptions options) {
  std::lock_guard lock(mutex_);
  events_.clear();
  events_.reserve(options.capacity < 4096 ? options.capacity : 4096);
  options_ = options;
  if (options_.yield_period == 0) options_.yield_period = 1;
  dropped_ = 0;
  session_.fetch_add(1, std::memory_order_relaxed);
  armed_flag_.store(true, std::memory_order_release);
}

std::vector<Event> RaceRecorder::stop() {
  armed_flag_.store(false, std::memory_order_release);
  std::lock_guard lock(mutex_);
  std::vector<Event> log;
  log.swap(events_);
  return log;
}

std::size_t RaceRecorder::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::uint64_t RaceRecorder::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void RaceRecorder::on_event(EventKind kind, const void* addr,
                            const void* aux, const char* name,
                            const char* detail, const char* file, int line) {
  Event event;
  event.kind = kind;
  event.thread = race_thread_id();
  event.addr = addr;
  event.aux = aux;
  event.name = name == nullptr ? "" : name;
  event.detail = detail;
  event.file = file == nullptr ? "" : file;
  event.line = line;
  if (ContextProbe probe = g_context_probe.load(std::memory_order_acquire)) {
    probe(&event.trace_id, &event.span_id);
  }

  bool yield = false;
  {
    std::lock_guard lock(mutex_);
    // A stop() can land between the macro's armed() check and this lock;
    // the event is then recorded into the drained (empty) log and cleared
    // by the next start() -- harmless either way.
    if (events_.size() >= options_.capacity) {
      ++dropped_;
      return;
    }
    event.seq = static_cast<std::uint64_t>(events_.size());
    if (options_.yield_seed != 0) {
      const std::uint64_t h = splitmix64(options_.yield_seed ^ event.seq);
      yield = (h % options_.yield_period) == 0;
    }
    events_.push_back(event);
  }
  // Perturb *outside* the recorder lock so a yield stalls only this
  // thread's next step, not every recording thread.
  if (yield) std::this_thread::yield();
}

}  // namespace netpart::analysis::race

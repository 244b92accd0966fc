#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace netpart {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};
// Serialises writers so concurrent lines (service workers, the availability
// churner) never interleave mid-line.
std::mutex g_write_mutex;
}  // namespace

LogLevel Logger::level() { return g_level.load(std::memory_order_relaxed); }

void Logger::log(LogLevel level, const std::string& message) {
  if (level < Logger::level()) return;
  // One fprintf emits the whole line, and the lock keeps distinct calls
  // from racing on the level check / stream position.
  std::lock_guard lock(g_write_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
}

const char* Logger::level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace:
      return "trace";
    case LogLevel::Debug:
      return "debug";
    case LogLevel::Info:
      return "info";
    case LogLevel::Warn:
      return "warn";
    case LogLevel::Error:
      return "error";
  }
  return "?";
}

}  // namespace netpart

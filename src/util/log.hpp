// Levelled logging.
//
// The simulator and partitioner are libraries; they never print unless the
// embedding program raises the log level.  Benchmarks raise it to Info to
// narrate calibration progress; tests leave it at Warn.
#pragma once

#include <sstream>
#include <string>

namespace netpart {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4 };

/// Process-wide log configuration.
class Logger {
 public:
  static LogLevel level();

  /// Emit if `level` >= the configured level.  Thread-safe: the service
  /// worker pool logs concurrently, so each call formats its whole line
  /// under a lock and writes it to stderr in one piece.
  static void log(LogLevel level, const std::string& message);

  static const char* level_name(LogLevel level);
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::log(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace netpart

#define NP_LOG(np_log_level)                                 \
  if (::netpart::Logger::level() > (np_log_level)) {         \
  } else                                                     \
    ::netpart::detail::LogLine(np_log_level)

#define NP_LOG_INFO NP_LOG(::netpart::LogLevel::Info)
#define NP_LOG_DEBUG NP_LOG(::netpart::LogLevel::Debug)
#define NP_LOG_WARN NP_LOG(::netpart::LogLevel::Warn)

// Minimal leveled logger.
//
// The simulator and the Agar managers emit structured progress lines; tests
// and benchmarks keep the level at kWarn so output stays clean. This is a
// tiny, allocation-light logger — not a general logging framework: a
// disabled line costs one relaxed atomic load and builds nothing.
#pragma once

#include <optional>
#include <sstream>
#include <string_view>

namespace agar {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log level; defaults to kWarn. Safe to read and set from any
/// thread (shard workers and the daemon's threads log): the level is a
/// relaxed atomic, and each enabled line reaches stderr in one write, so
/// lines logged concurrently never interleave.
LogLevel log_level();
void set_log_level(LogLevel level);

namespace detail {

class LogLine {
 public:
  LogLine(LogLevel level, std::string_view tag);
  ~LogLine();

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (stream_.has_value()) *stream_ << v;
    return *this;
  }

 private:
  /// Engaged only for an enabled line.
  std::optional<std::ostringstream> stream_;
};

}  // namespace detail

inline detail::LogLine log_debug(std::string_view tag) {
  return detail::LogLine(LogLevel::kDebug, tag);
}
inline detail::LogLine log_info(std::string_view tag) {
  return detail::LogLine(LogLevel::kInfo, tag);
}
inline detail::LogLine log_warn(std::string_view tag) {
  return detail::LogLine(LogLevel::kWarn, tag);
}
inline detail::LogLine log_error(std::string_view tag) {
  return detail::LogLine(LogLevel::kError, tag);
}

}  // namespace agar

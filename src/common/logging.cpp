#include "common/logging.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <string>

namespace agar {

namespace {
// agar-lint: global-ok(log verbosity knob; gates stderr diagnostics only,
// never touches results_json or simulation state)
std::atomic<LogLevel> g_level{LogLevel::kWarn};

std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF  ";
  }
  return "?";
}

/// One write(2) per line (looping only on a short write), so concurrent
/// lines cannot interleave mid-line.
void write_line(const std::string& line) {
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::write(STDERR_FILENO, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // stderr gone: diagnostics are best-effort
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}
}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }
void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

namespace detail {

LogLine::LogLine(LogLevel level, std::string_view tag) {
  const LogLevel threshold = log_level();
  if (level >= threshold && threshold != LogLevel::kOff) {
    stream_.emplace();
    *stream_ << "[" << level_name(level) << "][" << tag << "] ";
  }
}

LogLine::~LogLine() {
  if (stream_.has_value()) {
    *stream_ << '\n';
    write_line(stream_->str());
  }
}

}  // namespace detail
}  // namespace agar

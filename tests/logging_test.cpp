// Logging from several threads: the level is safe to read and set
// concurrently (this test runs under TSan in CI), and every enabled line
// reaches stderr whole — lines from different threads never interleave.
#include "common/logging.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace agar {
namespace {

constexpr int kThreads = 4;
constexpr int kLines = 200;

/// Runs `body` with stderr redirected to a temporary file; returns what
/// was written.
template <typename Body>
std::string capture_stderr(Body body) {
  std::FILE* tmp = std::tmpfile();
  EXPECT_NE(tmp, nullptr);
  const int saved = ::dup(STDERR_FILENO);
  ::dup2(::fileno(tmp), STDERR_FILENO);
  body();
  ::dup2(saved, STDERR_FILENO);
  ::close(saved);
  std::rewind(tmp);
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0) out.append(buf, n);
  std::fclose(tmp);
  return out;
}

TEST(Logging, ConcurrentLinesNeverInterleave) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);
  const std::string padding(300, 'x');  // long lines widen any race
  const std::string out = capture_stderr([&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &padding] {
        for (int i = 0; i < kLines; ++i) {
          log_info("thread" + std::to_string(t))
              << "line " << i << " " << padding;
          log_debug("thread" + std::to_string(t)) << "filtered " << i;
        }
      });
    }
    for (auto& th : threads) th.join();
  });
  set_log_level(before);

  const std::regex line_re(R"(\[INFO \]\[thread(\d)\] line (\d+) (x+))");
  std::map<int, int> next_line;  // per thread, lines arrive in order
  std::istringstream lines(out);
  std::string line;
  int total = 0;
  while (std::getline(lines, line)) {
    std::smatch m;
    ASSERT_TRUE(std::regex_match(line, m, line_re)) << "torn line: " << line;
    EXPECT_EQ(m[3].length(), static_cast<long>(padding.size()));
    const int t = std::stoi(m[1]);
    EXPECT_EQ(std::stoi(m[2]), next_line[t]++);
    ++total;
  }
  EXPECT_EQ(total, kThreads * kLines);
}

TEST(Logging, LevelIsSafeToChangeWhileThreadsLog) {
  const LogLevel before = log_level();
  const std::string out = capture_stderr([] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < kLines; ++i) {
          if (t == 0) {
            set_log_level(i % 2 == 0 ? LogLevel::kOff : LogLevel::kError);
          }
          log_error("level") << t << ":" << i;
        }
      });
    }
    for (auto& th : threads) th.join();
  });
  set_log_level(before);
  // Whatever subset got through arrived as whole lines.
  std::istringstream lines(out);
  std::string line;
  const std::regex line_re(R"(\[ERROR\]\[level\] \d:\d+)");
  while (std::getline(lines, line)) {
    EXPECT_TRUE(std::regex_match(line, line_re)) << "torn line: " << line;
  }
}

TEST(Logging, DisabledLinesWriteNothing) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kWarn);
  const std::string out = capture_stderr([] {
    log_info("quiet") << "never shown " << 42;
    log_debug("quiet") << "never shown";
  });
  set_log_level(before);
  EXPECT_TRUE(out.empty()) << out;
}

}  // namespace
}  // namespace agar

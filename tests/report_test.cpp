// Report formatting: table borders line up whatever the cells hold.
#include "client/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace agar::client {
namespace {

/// Columns a line occupies on a terminal: UTF-8 code points.
std::size_t columns(const std::string& line) {
  return static_cast<std::size_t>(
      std::count_if(line.begin(), line.end(), [](char c) {
        return (static_cast<unsigned char>(c) & 0xC0) != 0x80;
      }));
}

TEST(FormatTable, MultiByteCellsKeepEveryLineTheSameWidth) {
  // "±" is two bytes and one column; a claims row holding it must not
  // print its right border one column short of the header's.
  const std::string table = format_table(
      {"claim", "paper", "measured"},
      {{"hit ratio gap", "±3.0 pp", "2.1 pp"},
       {"latency", "35%", "41.2%"},
       {"tail ±", "—", "±0.5 pp"}});
  std::istringstream lines(table);
  std::string line;
  std::size_t width = 0;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    if (count++ == 0) width = columns(line);
    EXPECT_EQ(columns(line), width) << line;
  }
  EXPECT_EQ(count, 7u);  // three rules, the header and three rows
}

}  // namespace
}  // namespace agar::client

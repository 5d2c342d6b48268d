// The byte-identical results contract across commits: every committed
// spec file (examples/specs/**/*.json, except the daemon's route table)
// runs at shards 1, its results_json is normalized the way CI normalizes
// it (planner wall time zeroed) and digested with FNV-1a, and the digest
// must equal the one recorded in tests/golden/spec_results.txt. A change
// that is meant to leave results alone keeps every digest; one that moves
// results on purpose regenerates the file and says why.
//
// Each run prints "spec_results: <path> <digest>" lines, so the file can be
// regenerated from this test's own output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "client/report.hpp"
#include "common/bytes.hpp"
#include "spec_runner.hpp"

namespace agar {
namespace {

namespace fs = std::filesystem;

const fs::path kSpecDir = AGAR_SOURCE_DIR "/examples/specs";
const fs::path kGolden = AGAR_SOURCE_DIR "/tests/golden/spec_results.txt";

/// Spec files relative to examples/specs/, sorted; the daemon route table
/// is not an experiment.
std::vector<std::string> spec_files() {
  std::vector<std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(kSpecDir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") {
      continue;
    }
    const std::string rel =
        fs::relative(entry.path(), kSpecDir).generic_string();
    if (rel == "daemon_routes.json") continue;
    out.push_back(rel);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(kGolden);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string path, digest;
    if (fields >> path >> digest) out[path] = digest;
  }
  return out;
}

std::string digest_of(const std::string& path) {
  const auto reports = spec_test::run_spec_file(path, {"shards=1"});
  static const std::regex kPlanningMs(R"re("planning_ms": [^,}]*)re");
  const std::string json =
      std::regex_replace(client::results_json(api::results_of(reports)),
                         kPlanningMs, "\"planning_ms\": 0");
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(json)));
  return hex;
}

TEST(SpecGolden, EverySpecMatchesItsRecordedDigest) {
  const auto golden = load_golden();
  const auto files = spec_files();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    const std::string digest = digest_of(path);
    std::cout << "spec_results: " << path << " " << digest << std::endl;
    const auto it = golden.find(path);
    if (it == golden.end()) {
      ADD_FAILURE() << path << " has no digest in " << kGolden;
      continue;
    }
    EXPECT_EQ(it->second, digest) << path << ": results_json changed";
  }
  for (const auto& [path, digest] : golden) {
    EXPECT_TRUE(std::binary_search(files.begin(), files.end(), path))
        << kGolden << " lists " << path << ", which is not a spec file";
  }
}

}  // namespace
}  // namespace agar

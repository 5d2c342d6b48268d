// Runs a checked-in spec file (examples/specs/) the way the CLI does, for
// the tests that check its results: paper_claims_test (the §V claims) and
// spec_golden_test (byte-identical results_json per spec).
#pragma once

#include <string>
#include <vector>

#include "api/api.hpp"

namespace agar::spec_test {

/// Every spec of `path` (relative to examples/specs/, ".json" included),
/// with each `extra` key=value pair applied on top, run to completion.
inline std::vector<api::RunReport> run_spec_file(
    const std::string& path, const std::vector<std::string>& extra = {}) {
  auto specs =
      api::load_spec_file(AGAR_SOURCE_DIR "/examples/specs/" + path);
  for (auto& spec : specs) {
    for (const auto& pair : extra) spec.set_pair(pair);
    spec.validate();
  }
  return api::run_all(specs);
}

}  // namespace agar::spec_test

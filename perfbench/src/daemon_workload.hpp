// The daemon-routes workload: a freshly started agard process serving the
// routes of a routing config, driven over its Unix socket by two
// closed-loop connections (one per route) through daemon::DaemonClient.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.hpp"

namespace perfbench {

struct DaemonOptions {
  std::string agard;       ///< agard binary
  std::string routes;      ///< routing config (JSON)
  std::string run_dir;     ///< socket and log files go here
  std::uint64_t seed = 1;
  double seconds = 1.0;    ///< measured closed-loop phase
  bool trace = false;
  bool corrupt_expected = false;
};

[[nodiscard]] Outcome run_daemon_workload(const DaemonOptions& options);

}  // namespace perfbench

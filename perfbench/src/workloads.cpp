#include "workloads.hpp"

#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

using agar::api::ExperimentSpec;

/// Paper §V: Agar, RS(9,3), 300 x 1 MB objects, Zipf 1.1, 10 MB cache,
/// Frankfurt, 2 closed-loop clients, 30 s reconfiguration period.
std::vector<std::string> paper_pairs() {
  return {"system=agar",      "rs_k=9",           "rs_m=3",
          "objects=300",      "object_bytes=1MB", "workload=zipf:1.1",
          "cache_bytes=10MB", "region=frankfurt", "clients=2",
          "period_s=30",      "shards=1"};
}

std::string n(const char* key, std::size_t value) {
  return std::string(key) + "=" + std::to_string(value);
}

}  // namespace

SimWorkload sim_workload(const std::string& name, std::uint64_t seed) {
  std::vector<std::string> pairs = paper_pairs();
  std::size_t virt_reads = 0;  // per run, five runs
  std::size_t rep_reads = 0;
  std::size_t traced_reads = 0;
  if (name == "paper-meta") {
    pairs.push_back("verify=false");
    virt_reads = 10000;
    rep_reads = 10000;
    traced_reads = 50000;
  } else if (name == "paper-verify") {
    pairs.push_back("verify=true");
    virt_reads = 400;
    rep_reads = 400;
    traced_reads = 1200;
  } else if (name == "geo-hedge") {
    // Every region is a client region, open-loop Poisson; Virginia
    // straggles from t=1 s; the virtual experiment runs one shard per core
    // of a 4-core host.
    pairs.insert(pairs.end(),
                 {"regions=frankfurt,dublin,virginia,saopaulo,tokyo,sydney",
                  "arrival_rate=20", "fetch=hedge", "collab=broadcast",
                  "scenario=1000 straggle_region region=virginia frac=0.2 "
                  "mult=8",
                  "shards=4", "verify=false"});
    virt_reads = 20000;
    rep_reads = 60000;
    traced_reads = 30000;
  } else {
    throw std::invalid_argument("unknown simulator workload: " + name);
  }
  pairs.push_back(n("seed", seed));
  const ExperimentSpec base = ExperimentSpec::from_pairs(pairs);
  SimWorkload w{base.with({"runs=5", n("ops", virt_reads)}),
                base.with({"runs=1", "shards=1", n("ops", rep_reads)}),
                base.with({"runs=1", "shards=1", n("ops", traced_reads)}),
                std::nullopt, std::nullopt};
  if (name == "geo-hedge") {
    w.sharded = w.measured.with({"shards=4"});
    // At 50 reads/s/region hedging amplifies the straggler's load until
    // reads fail (11.5% of a 200k-read run).
    w.overload = base.with({"runs=1", "ops=60000", "arrival_rate=50"});
  }
  for (const ExperimentSpec* s : {&w.virt, &w.measured, &w.traced}) s->validate();
  return w;
}

}  // namespace perfbench

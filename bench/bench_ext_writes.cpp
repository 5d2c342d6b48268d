// Extension (§VI): write latency with Paxos-backed cache coherence.
//
// Not an experiment from the paper — the paper's evaluation is read-only
// and §VI sketches writes + coherence as future work. This bench measures
// what that future work costs in our implementation: per-region write
// latency (data path vs consensus commit) and the effect of invalidation
// on a read workload with a writer mixed in.
#include <iostream>

#include "api/api.hpp"
#include "client/agar_strategy.hpp"
#include "client/report.hpp"
#include "client/writer.hpp"

using namespace agar;

int main() {
  client::print_experiment_banner(
      "Extension", "writes with Paxos-backed cache coherence (§VI)",
      "RS(9,3), six regions, 1 MB objects; consensus quorum 4/6");

  client::DeploymentConfig dep;
  dep.num_objects = 50;
  dep.object_size_bytes = 1_MB;
  dep.seed = 77;
  dep.store_payloads = false;
  client::Deployment deployment(dep);
  paxos::CoherenceCoordinator coherence(6, &deployment.network(),
                                       &deployment.backend().objects());

  // (a) Write latency per writer region.
  const auto topology = sim::aws_six_regions();
  std::vector<std::vector<std::string>> rows;
  for (RegionId r = 0; r < topology.num_regions(); ++r) {
    client::WriterContext wctx;
    wctx.backend = &deployment.backend();
    wctx.network = &deployment.network();
    wctx.region = r;
    wctx.store_payloads = false;
    client::WriterClient writer(wctx, &coherence);

    stats::Histogram total, consensus;
    const Bytes payload(1_MB, 0);
    for (int i = 0; i < 20; ++i) {
      const auto result =
          writer.write("object" + std::to_string(i % 50), BytesView(payload));
      if (!result.ok) continue;
      total.add(result.latency_ms);
      consensus.add(result.consensus_ms);
    }
    rows.push_back({topology.name(r), client::fmt_ms(total.mean()),
                    client::fmt_ms(consensus.mean()),
                    client::fmt_ms(total.mean() - consensus.mean())});
  }
  std::cout << client::format_table(
      {"writer region", "write latency (ms)", "consensus", "data path"},
      rows);

  // (b) Reader + writer mix: invalidations force re-population. The Agar
  // reader comes from the api registry, like every other system, and runs
  // on the simulation's event loop.
  const auto reader_spec = api::ExperimentSpec::from_pairs(
      {"system=agar", "region=frankfurt", "cache_bytes=10MB"});
  sim::EventLoop loop;
  const auto strategy = api::make_strategy(reader_spec, deployment,
                                           sim::region::kFrankfurt, loop);
  auto& reader = *dynamic_cast<client::AgarStrategy*>(strategy.get());
  coherence.attach_cache(sim::region::kFrankfurt, &reader.node().cache(), 12);

  client::WriterContext wctx;
  wctx.backend = &deployment.backend();
  wctx.network = &deployment.network();
  wctx.region = sim::region::kSydney;
  wctx.store_payloads = false;
  client::WriterClient writer(wctx, &coherence);

  client::Workload workload(client::WorkloadSpec::zipfian(1.1), 50, 11);
  stats::Histogram read_only, with_writes;
  // Warm phase, no writer; then a period of virtual time for the periodic
  // reconfiguration and its background population downloads.
  for (int i = 0; i < 200; ++i) (void)reader.read(workload.next_key());
  loop.run_until(loop.now() + reader_spec.experiment.reconfig_period_ms);
  for (int i = 0; i < 300; ++i) {
    read_only.add(reader.read(workload.next_key()).latency_ms);
  }
  // Writer interferes: every 10th operation rewrites a hot object.
  const Bytes payload(1_MB, 0);
  for (int i = 0; i < 300; ++i) {
    if (i % 10 == 0) {
      (void)writer.write("object" + std::to_string(i % 5), BytesView(payload));
    }
    with_writes.add(reader.read(workload.next_key()).latency_ms);
  }
  std::cout << "\nreader mean latency, read-only phase : "
            << client::fmt_ms(read_only.mean()) << " ms\n"
            << "reader mean latency, 10% hot writes  : "
            << client::fmt_ms(with_writes.mean()) << " ms\n"
            << "invalidations applied                : "
            << coherence.invalidations_applied() << "\n";

  std::cout << "\ntakeaway: consensus adds ~2 quorum RTTs per write; "
               "invalidations of hot objects cost readers re-population "
               "misses, which is the coherence tax §VI anticipates.\n";
  return 0;
}

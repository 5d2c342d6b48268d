// Writes with cache coherence (§VI future work, implemented): a writer in
// Sydney updates an object that readers in Frankfurt have cached; Paxos
// serializes the write and the invalidation reaches every region's cache
// before the write acknowledges.
//
//   $ ./coherent_writes
#include <iostream>

#include "api/api.hpp"
#include "client/agar_strategy.hpp"
#include "client/writer.hpp"

using namespace agar;

int main() {
  std::cout << "Coherent writes through Paxos (quorum 4 of 6 regions)\n\n";

  const auto spec = api::ExperimentSpec::from_pairs(
      {"system=agar", "objects=10", "object_bytes=90KB", "seed=5",
       "verify=true", "region=frankfurt", "cache_bytes=5MB"});
  client::Deployment deployment(spec.experiment.deployment);
  paxos::CoherenceCoordinator coherence(6, &deployment.network(),
                                       &deployment.backend().objects());

  // Reader in Frankfurt with an Agar cache, built through the registry and
  // run on the simulation's event loop.
  sim::EventLoop loop;
  const auto strategy = api::make_strategy(
      spec, deployment, spec.experiment.client_region, loop);
  auto& reader = *dynamic_cast<client::AgarStrategy*>(strategy.get());
  coherence.attach_cache(sim::region::kFrankfurt, &reader.node().cache(), 12);

  // Warm the cache on object0: reads train the request monitor, then a
  // period of virtual time passes for the periodic reconfiguration and its
  // background population downloads.
  for (int i = 0; i < 30; ++i) (void)reader.read("object0");
  loop.run_until(loop.now() + spec.experiment.reconfig_period_ms);
  const auto warm = reader.read("object0");
  std::cout << "reader, cached       : " << warm.latency_ms << " ms ("
            << warm.cache_chunks << "/9 chunks from cache)\n";

  // Writer in Sydney rewrites object0.
  client::WriterContext wctx;
  wctx.backend = &deployment.backend();
  wctx.network = &deployment.network();
  wctx.region = sim::region::kSydney;
  client::WriterClient writer(wctx, &coherence);
  const Bytes fresh = deterministic_payload("new-object0", 90_KB);
  const auto w = writer.write("object0", BytesView(fresh));
  std::cout << "writer (Sydney)      : " << w.latency_ms
            << " ms total, of which consensus " << w.consensus_ms
            << " ms; version " << w.version << "\n";

  // The reader's stale chunks are gone; the next read refetches them, and
  // once its background repopulation downloads have landed (a few seconds
  // of virtual time) the cache serves the NEW bytes.
  const auto miss = reader.read("object0");
  std::cout << "reader, post-write   : " << miss.latency_ms << " ms ("
            << miss.cache_chunks << "/9 from cache -- invalidated)\n";
  loop.run_until(loop.now() + 5'000.0);
  const auto rehit = reader.read("object0");
  const store::ObjectInfo info = deployment.backend().object_info("object0");
  std::cout << "reader, repopulated  : " << rehit.latency_ms << " ms ("
            << rehit.cache_chunks << "/9 from cache, object size "
            << info.object_size << ")\n";

  std::cout << "\nNo reader anywhere can observe the old value after the "
               "write acknowledged: the invalidation is ordered through "
               "the same Paxos log on every cache.\n";
  return 0;
}

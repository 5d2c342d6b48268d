// In-flight fetch table with duplicate coalescing (paper §IV-A's population
// pool meets the read path).
//
// Every chunk download of one Agar node — read-path fetches, post-read
// population writes and reconfiguration prefetches — funnels through this
// coordinator. If a chunk is already being downloaded, later requesters
// join the in-flight entry instead of issuing a second wire fetch; when the
// single wire transfer completes, every joined callback fires. This is the
// classic request-coalescing ("singleflight") pattern: under a skewed
// workload many concurrent reads want the same hot chunk, and without
// coalescing the simulated backends would serve the same bytes repeatedly.
//
// One coordinator serves one client region (wire latency depends on the
// requesting region, so coalescing across regions would be wrong).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sim/network.hpp"
#include "store/object_table.hpp"

namespace agar::core {

/// How one fetch request was admitted.
enum class FetchStart {
  kStarted,  ///< fresh wire fetch issued to the network
  kJoined,   ///< coalesced onto an already in-flight fetch of the chunk
  kDown,     ///< region down and nothing in flight; callback never fires
};

class FetchCoordinator {
 public:
  using Callback = sim::Network::FetchCallback;
  /// Pluggable wire layer with Network::begin_fetch's contract: return
  /// false to refuse synchronously, otherwise fire the callback exactly
  /// once on the loop. The client installs its fault-tolerant fetch policy
  /// here, *under* the coalescing table — so retries and hedges of one
  /// chunk still count as a single in-flight entry that others join. The
  /// chunk identity is passed through so the cooperative cache tier can
  /// redirect a fetch to a peer cache that holds the chunk.
  using Transport = std::function<bool(const ChunkRef&, RegionId, RegionId,
                                       std::size_t, Callback)>;
  /// A transport that names chunks by key string (adapter form).
  using KeyedTransport = std::function<bool(const ChunkId&, RegionId,
                                            RegionId, std::size_t, Callback)>;

  /// `objects` resolves the ChunkId adapters below; without one the
  /// coordinator interns the keys those adapters see into a table of its
  /// own. The ChunkRef path never consults either.
  explicit FetchCoordinator(sim::Network* network,
                            const store::ObjectTable* objects = nullptr);

  /// Route wire fetches through `transport` instead of the raw network.
  /// An empty transport restores the direct path.
  void set_transport(Transport transport) {
    transport_ = std::move(transport);
  }
  /// Adapter: `transport` receives each chunk as a ChunkId.
  void set_transport(KeyedTransport transport);

  /// Fetch chunk `chunk` of size `bytes` from backend region `to` on behalf
  /// of a client in `from`. If the chunk is already in flight the request
  /// joins it (one wire fetch, every callback fires at completion).
  FetchStart fetch(const ChunkRef& chunk, RegionId from, RegionId to,
                   std::size_t bytes, Callback cb);
  /// Adapter: resolves the ChunkId and calls the ChunkRef form.
  FetchStart fetch(const ChunkId& chunk, RegionId from, RegionId to,
                   std::size_t bytes, Callback cb);

  /// Is a fetch of this chunk currently on the wire (or queued)?
  [[nodiscard]] bool in_flight(const ChunkRef& chunk) const {
    return inflight_.contains(chunk.packed());
  }

  // ------------------------------------------------------- observability
  /// Wire fetches actually issued to the network.
  [[nodiscard]] std::uint64_t started() const { return started_; }
  /// Requests that joined an existing in-flight fetch (deduplicated work).
  [[nodiscard]] std::uint64_t coalesced() const { return coalesced_; }
  [[nodiscard]] std::size_t table_size() const { return inflight_.size(); }
  [[nodiscard]] std::size_t max_table_size() const { return max_table_size_; }

 private:
  sim::Network* network_;  // non-owning
  /// Resolves the ChunkId adapters: the table passed in, or (built on the
  /// first adapter call without one) own_objects_.
  const store::ObjectTable* objects_;
  std::unique_ptr<store::ObjectTable> own_objects_;
  Transport transport_;    // empty = raw network
  /// Waiters per in-flight chunk, keyed by ChunkRef::packed().
  std::unordered_map<std::uint64_t, std::vector<Callback>> inflight_;
  std::uint64_t started_ = 0;
  std::uint64_t coalesced_ = 0;
  std::size_t max_table_size_ = 0;
};

}  // namespace agar::core

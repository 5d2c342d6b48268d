// In-memory span tracer and the arithmetic the benchmark reports from it.
//
// Spans are recorded by the benchmark around its own calls into each layer
// of the Agar read path (the program itself carries no tracing). A span has
// a layer, a start and end (steady_clock ns), the span that was open when it
// started (its parent) and the read it belongs to. Spans stay in memory and
// are written out when the benchmark ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers of the read path, named after the repository's modules.
enum class Layer : std::uint8_t {
  kLoop,         ///< sim/event_loop: one EventLoop::step (dispatch)
  kWorkload,     ///< client/workload: next key of the stream
  kClient,       ///< client/strategy: batch assembly and completion glue
  kMonitor,      ///< core/request_monitor: RequestMonitor::record_access
  kPlan,         ///< core/read_planner: plan_chunk_sources
  kCache,        ///< cache/static_cache: StaticConfigCache get/put
  kFetch,        ///< core/fetch_coordinator: FetchCoordinator::fetch
  kNet,          ///< sim/network + client/fetch_policy: the wire call
  kControl,      ///< core/cache_manager: CacheManager::reconfigure
  kDecode,       ///< ec: ObjectCodec::decode
  kStore,        ///< store: BackendCluster::get_chunk
  kVerify,       ///< common/bytes: deterministic_payload + compare
  kDaemonServe,  ///< daemon/service: ServiceInstance::serve_get
  kDaemonCodec,  ///< daemon/protocol: GET request/response encode+decode
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top
  std::uint32_t read_id = 0; ///< 0: not attributable to one read
  Layer layer = Layer::kLoop;
};

[[nodiscard]] std::uint64_t now_ns();

class Tracer {
 public:
  /// `reserve` spans are allocated up front even when disabled, so a
  /// traced and an untraced run of the same work share one heap layout.
  explicit Tracer(bool enabled, std::size_t reserve = 0);

  /// Open a span under the innermost open one; returns its index (-1 when
  /// tracing is off).
  std::int32_t open(Layer layer, std::uint32_t read_id);
  void close(std::int32_t index);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer, std::uint32_t read_id = 0)
        : tracer_(tracer), index_(tracer.open(layer, read_id)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as TSV: layer, start_ns, end_ns, parent, read_id.
  void write_tsv(const std::string& path) const;

 private:
  bool enabled_;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps
/// between children counted once).
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

/// Per-layer totals over a span set.
struct LayerTotals {
  std::vector<std::uint64_t> self_ns;  ///< indexed by Layer
  std::vector<std::uint64_t> calls;    ///< spans per layer

  [[nodiscard]] std::uint64_t total_self_ns() const;
  [[nodiscard]] double ns_per_call(Layer layer) const;
};

[[nodiscard]] LayerTotals layer_totals(const std::vector<Span>& spans);

/// Highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has at
/// least ten of `n` samples beyond it; 0 when even the median has fewer.
[[nodiscard]] double tail_percentile(std::size_t n);

/// Nearest-rank percentile of an ascending sample vector (0 when empty).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);

[[nodiscard]] double median(std::vector<double> values);

/// Metric names: a letter or digit first, then at most 64 of
/// [A-Za-z0-9_.-] in all.
[[nodiscard]] bool valid_metric_name(const std::string& name);

}  // namespace perfbench

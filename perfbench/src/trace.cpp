#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kLoop: return "loop";
    case Layer::kWorkload: return "workload";
    case Layer::kClient: return "client";
    case Layer::kMonitor: return "monitor";
    case Layer::kPlan: return "plan";
    case Layer::kCache: return "cache";
    case Layer::kFetch: return "fetch";
    case Layer::kNet: return "net";
    case Layer::kControl: return "control";
    case Layer::kDecode: return "decode";
    case Layer::kStore: return "store";
    case Layer::kVerify: return "verify";
    case Layer::kDaemonServe: return "daemon.serve";
    case Layer::kDaemonCodec: return "daemon.codec";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(bool enabled, std::size_t reserve) : enabled_(enabled) {
  // Reserved either way, so traced and untraced runs see the same heap.
  spans_.reserve(reserve);
}

std::int32_t Tracer::open(Layer layer, std::uint32_t read_id) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{now_ns(), 0, current_, read_id, layer});
  current_ = index;
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

void Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("layer\tstart_ns\tend_ns\tparent\tread_id\n", f);
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%llu\t%d\t%u\n", layer_name(s.layer),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 s.read_id);
  }
  std::fclose(f);
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  // Children of each span, clipped to the parent's interval.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns
                                            : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = dur > covered ? dur - covered : 0;
  }
  return out;
}

std::uint64_t LayerTotals::total_self_ns() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : self_ns) sum += v;
  return sum;
}

double LayerTotals::ns_per_call(Layer layer) const {
  const auto i = static_cast<std::size_t>(layer);
  return calls[i] == 0 ? 0.0
                       : static_cast<double>(self_ns[i]) /
                             static_cast<double>(calls[i]);
}

LayerTotals layer_totals(const std::vector<Span>& spans) {
  LayerTotals t;
  const auto n = static_cast<std::size_t>(Layer::kCount);
  t.self_ns.assign(n, 0);
  t.calls.assign(n, 0);
  const std::vector<std::uint64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto layer = static_cast<std::size_t>(spans[i].layer);
    t.self_ns[layer] += self[i];
    ++t.calls[layer];
  }
  return t;
}

double tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double q : kLadder) {
    // Samples strictly above the q-th percentile: n * (1 - q/100), computed
    // in integers (q has at most two decimals) so 1000 samples admit p99.
    const auto per_10k = static_cast<std::size_t>(q * 100.0 + 0.5);
    if (n * (10000 - per_10k) >= 10 * 10000) return q;
  }
  return 0.0;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[idx - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench

#include "calibrate.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr int kSliceOps = 300000;

}  // namespace

double calibration_slice() {
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::string, std::uint64_t> map;
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  std::vector<std::function<void()>> calls;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kSliceOps; ++i) {
    const std::string key = "object" + std::to_string(next() % 256) + "#" +
                            std::to_string(next() % 12);
    const auto [it, inserted] = map.try_emplace(key, i);
    sink += it->second;
    if (!inserted && (next() & 7) == 0) map.erase(it);
    heap.push(static_cast<double>(next() % 100000));
    if (heap.size() > 1024) {
      sink += static_cast<std::uint64_t>(heap.top());
      heap.pop();
    }
    std::vector<int> v(8 + next() % 24, i);
    calls.emplace_back([&sink, v = std::move(v)] { sink += v.size(); });
    if (calls.size() > 64) {
      for (auto& f : calls) f();
      calls.clear();
    }
  }
  const std::uint64_t t1 = now_ns();
  // Keep the work observable so it cannot be optimized away.
  asm volatile("" : : "r"(sink) : "memory");
  return kSliceOps / (static_cast<double>(t1 - t0) / 1e9);
}

double host_speed(const std::vector<double>& slice_rates) {
  return median(slice_rates) / kReferenceOpsPerSec;
}

}  // namespace perfbench

#include "self_test.hpp"

#include <cstdio>
#include <set>

#include "client/workload.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench self-test FAILED: %s\n", what);
    ++g_failures;
  }
}

void test_percentiles() {
  check(tail_percentile(1000) == 99.0, "1000 samples admit p99");
  check(tail_percentile(999) == 90.0, "999 samples stop at p90");
  check(tail_percentile(10000) == 99.9, "10000 samples admit p99.9");
  check(tail_percentile(100000) == 99.99, "100000 samples admit p99.99");
  check(tail_percentile(99) == 50.0, "99 samples stop at p50");
  check(tail_percentile(19) == 0.0, "19 samples admit no percentile");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(percentile(v, 50) == 50.0, "nearest-rank p50 of 1..100");
  check(percentile(v, 99) == 99.0, "nearest-rank p99 of 1..100");
  check(percentile(v, 100) == 100.0, "p100 is the maximum");
  check(percentile(v, 0) == 1.0, "p0 is the minimum");
  check(percentile({}, 99) == 0.0, "empty sample set");
  check(median({3, 1, 2}) == 2.0 && median({4, 1, 2, 3}) == 2.5, "median");
}

void test_self_times() {
  // parent [0,100]; children [10,30] and [20,50] overlap, [90,120] sticks
  // out of the parent; grandchild [12,18] sits in the first child.
  std::vector<Span> spans = {
      {0, 100, -1, 1, Layer::kLoop},   {10, 30, 0, 1, Layer::kPlan},
      {20, 50, 0, 1, Layer::kCache},   {90, 120, 0, 1, Layer::kFetch},
      {12, 18, 1, 1, Layer::kMonitor}, {200, 260, -1, 2, Layer::kLoop},
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  check(self[0] == 50, "parent minus the union of its clipped children");
  check(self[1] == 14, "child minus its grandchild");
  check(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self times");
  check(self[5] == 60, "childless top-level span");
  const LayerTotals t = layer_totals(spans);
  check(t.self_ns[static_cast<std::size_t>(Layer::kLoop)] == 110, "loop layer total");
  check(t.calls[static_cast<std::size_t>(Layer::kLoop)] == 2, "loop layer calls");
  check(t.total_self_ns() == 50 + 14 + 30 + 30 + 6 + 60,
        "self times add up without double counting");

  Tracer tracer(true);
  {
    const Tracer::Scope outer(tracer, Layer::kLoop);
    const Tracer::Scope inner(tracer, Layer::kPlan, 7);
  }
  { const Tracer::Scope next(tracer, Layer::kLoop); }
  const auto& s = tracer.spans();
  check(s.size() == 3 && s[0].parent == -1 && s[1].parent == 0 &&
            s[1].read_id == 7 && s[2].parent == -1,
        "tracer records parents and read ids");
  check(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns,
        "child span nests inside its parent");
  Tracer off(false);
  { const Tracer::Scope span(off, Layer::kLoop); }
  check(off.spans().empty(), "a disabled tracer records nothing");
}

void test_metric_names() {
  std::set<std::string> seen;
  std::vector<std::string> names;
  for (const MetricDef& d : kEndToEnd) names.emplace_back(d.name);
  for (const MetricDef& d : kPerLayer) names.emplace_back(d.name);
  for (const std::string& name : names) {
    check(valid_metric_name(name), "reported metric names use [A-Za-z0-9_.-]");
    check(seen.insert(name).second, "metric names are unique");
  }
  check(valid_metric_name("reads_per_s") && valid_metric_name("a.b-c_9"),
        "valid names pass");
  check(!valid_metric_name("") && !valid_metric_name("bad name") &&
            !valid_metric_name(".lead") && !valid_metric_name("a/b") &&
            !valid_metric_name(std::string(65, 'a')),
        "invalid names fail");
}

std::vector<std::string> keys(std::uint64_t seed, std::size_t n) {
  agar::client::Workload w(agar::client::WorkloadSpec::zipfian(1.1), 300,
                           agar::client::workload_stream_seed(seed, 0, 0));
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(w.next_key());
  return out;
}

void test_key_streams() {
  check(keys(7, 2000) == keys(7, 2000), "same seed, same key stream");
  check(keys(7, 2000) != keys(8, 2000), "different seed, different stream");
  const auto a = sim_workload("paper-meta", 7);
  const auto b = sim_workload("paper-meta", 8);
  check(a.measured.experiment.deployment.seed == 7 &&
            b.measured.experiment.deployment.seed == 8,
        "the workload seed reaches the experiment");
}

}  // namespace

int run_self_tests() {
  g_failures = 0;
  test_percentiles();
  test_self_times();
  test_metric_names();
  test_key_streams();
  return g_failures;
}

}  // namespace perfbench

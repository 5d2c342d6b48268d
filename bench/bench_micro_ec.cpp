// EC data-plane throughput harness: GF(256) bulk kernels (every runtime
// backend vs the scalar reference), Reed-Solomon encode/decode for the
// paper's RS(9,3) (the erased-row rebuild of a verify-mode read on every
// backend), the decode-plan cache (cold vs memoized inversion), and the
// verify-mode check of one read (erased rows rebuilt, rows compared).
//
// Self-contained (no Google Benchmark) so CI can always build and run it.
// Default output is an aligned table; --json emits a JSON array ("BENCH
// JSON") for artifact upload and trend tracking. --quick shrinks the
// per-measurement budget for smoke runs.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ec/object_codec.hpp"
#include "ec/reed_solomon.hpp"
#include "gf/gf256.hpp"
#include "store/backend.hpp"

namespace {

using namespace agar;
using Clock = std::chrono::steady_clock;

double g_budget_ms = 80.0;  // per measurement; --quick lowers it

struct Result {
  std::string bench;
  std::string backend;
  std::size_t bytes = 0;       ///< payload bytes processed per iteration
  double mb_per_s = 0.0;
  double ns_per_op = 0.0;
  std::string note;
};

std::vector<Result>& results() {
  static std::vector<Result> r;
  return r;
}

/// Run fn until the time budget is spent; returns seconds per iteration.
template <typename Fn>
double time_op(Fn&& fn) {
  fn();  // warm-up / first-touch
  std::uint64_t iters = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (ms >= g_budget_ms || iters > (1ULL << 30)) {
      return ms / 1e3 / static_cast<double>(iters);
    }
    const double target = g_budget_ms * 1.2;
    const std::uint64_t next =
        ms <= 0.01 ? iters * 32
                   : static_cast<std::uint64_t>(
                         static_cast<double>(iters) * target / ms) +
                         1;
    iters = std::max(next, iters + 1);
  }
}

template <typename Fn>
void record(const std::string& bench, const std::string& backend,
            std::size_t bytes_per_iter, Fn&& fn, std::string note = "") {
  const double sec = time_op(fn);
  Result r;
  r.bench = bench;
  r.backend = backend;
  r.bytes = bytes_per_iter;
  r.mb_per_s = bytes_per_iter == 0
                   ? 0.0
                   : static_cast<double>(bytes_per_iter) / sec / 1e6;
  r.ns_per_op = sec * 1e9;
  r.note = std::move(note);
  results().push_back(r);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Bytes out(n);
  Rng rng(seed);
  rng.fill_bytes(out.data(), out.size());
  return out;
}

// ------------------------------------------------------------ gf kernels

void bench_kernels() {
  const std::vector<std::size_t> sizes = {4096, 114 * 1024, 1024 * 1024};
  for (const gf::Backend b : gf::supported_backends()) {
    if (!gf::set_backend(b)) continue;
    const std::string name = gf::backend_name(b);
    for (const std::size_t n : sizes) {
      const Bytes src = random_bytes(n, 1);
      Bytes dst = random_bytes(n, 2);
      record("mul_slice", name, n,
             [&] { gf::mul_slice(0x57, src, dst); });
      record("mul_add_slice", name, n,
             [&] { gf::mul_add_slice(0x57, src, dst); });
      record("xor_slice", name, n, [&] { gf::xor_slice(src, dst); });

      // Multi-row apply with the paper's k = 9 sources: one output row
      // (a single erased data row), two (the paper-verify majority) and
      // three (RS(9,3) encode, or every data row of a stripe erased).
      constexpr std::size_t kSrcs = 9;
      std::vector<Bytes> srcs;
      std::vector<BytesView> views;
      for (std::size_t j = 0; j < kSrcs; ++j) {
        srcs.push_back(random_bytes(n, 10 + j));
      }
      for (const auto& s : srcs) views.emplace_back(s);
      std::vector<Bytes> outs(3, Bytes(n));
      for (std::size_t rows = 1; rows <= outs.size(); ++rows) {
        std::vector<std::uint8_t> coeffs;
        std::vector<BytesSpan> out_views;
        for (std::size_t e = 0; e < rows * kSrcs; ++e) {
          coeffs.push_back(static_cast<std::uint8_t>(3 + 2 * e));
        }
        for (std::size_t r = 0; r < rows; ++r) out_views.emplace_back(outs[r]);
        record("mul_rows_k9_r" + std::to_string(rows), name, n * kSrcs,
               [&] { gf::mul_rows(coeffs, views, out_views); });
      }
    }
  }
  gf::reset_backend();
}

// --------------------------------------------------------- reed-solomon

void bench_rs() {
  const std::size_t chunk = 114 * 1024;
  const ec::ReedSolomon rs(ec::CodecParams{9, 3});
  std::vector<Bytes> data;
  std::vector<BytesView> views;
  for (std::size_t i = 0; i < 9; ++i) data.push_back(random_bytes(chunk, 20 + i));
  for (const auto& d : data) views.emplace_back(d);
  const auto parity = rs.encode(views);

  for (const gf::Backend b : gf::supported_backends()) {
    if (!gf::set_backend(b)) continue;
    const std::string name = gf::backend_name(b);
    record("rs_encode_9_3", name, chunk * 9,
           [&] { auto p = rs.encode(views); });
  }
  gf::reset_backend();

  // Decode paths on the active (best) backend.
  const std::string active = gf::backend_name(gf::active_backend());
  std::vector<std::pair<std::uint32_t, BytesView>> all_data;
  for (std::uint32_t i = 0; i < 9; ++i) all_data.emplace_back(i, data[i]);
  record("rs_decode_all_data", active, chunk * 9,
         [&] { auto out = rs.reconstruct_data(all_data); });

  for (const std::size_t missing :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    std::vector<std::pair<std::uint32_t, BytesView>> degraded;
    for (std::uint32_t i = static_cast<std::uint32_t>(missing); i < 9; ++i) {
      degraded.emplace_back(i, data[i]);
    }
    for (std::uint32_t p = 0; p < missing; ++p) {
      degraded.emplace_back(9 + p, parity[p]);
    }
    const std::string tag = "rs_decode_missing" + std::to_string(missing);
    record(tag + "_cold_plan", active, chunk * 9, [&] {
      rs.clear_decode_plan_cache();
      auto out = rs.reconstruct_data(degraded);
    });
    record(tag + "_cached_plan", active, chunk * 9,
           [&] { auto out = rs.reconstruct_data(degraded); });
    // The verify-mode read path on every backend: present data chunks stay
    // views, only the erased rows are rebuilt (one pass for all of them),
    // into a reused scratch.
    ec::DecodeScratch scratch;
    for (const gf::Backend b : gf::supported_backends()) {
      if (!gf::set_backend(b)) continue;
      record(tag + "_erased_rows", gf::backend_name(b), chunk * 9, [&] {
        (void)rs.reconstruct_data_views(degraded, scratch);
      }, "cached plan, views + reused scratch");
    }
    gf::reset_backend();
  }

  // Decode-plan setup cost in isolation: 64-byte chunks make the GF work
  // negligible, so cold-vs-cached is (almost) pure matrix-inversion time.
  std::vector<Bytes> tiny;
  std::vector<BytesView> tiny_views;
  for (std::size_t i = 0; i < 9; ++i) tiny.push_back(random_bytes(64, 40 + i));
  for (const auto& t : tiny) tiny_views.emplace_back(t);
  const auto tiny_parity = rs.encode(tiny_views);
  std::vector<std::pair<std::uint32_t, BytesView>> tiny_degraded;
  for (std::uint32_t i = 3; i < 9; ++i) tiny_degraded.emplace_back(i, tiny[i]);
  for (std::uint32_t p = 0; p < 3; ++p) {
    tiny_degraded.emplace_back(9 + p, tiny_parity[p]);
  }
  record("plan_setup_cold", active, 0, [&] {
    rs.clear_decode_plan_cache();
    auto out = rs.reconstruct_data(tiny_degraded);
  }, "64 B chunks: ~pure inversion cost");
  record("plan_setup_cached", active, 0,
         [&] { auto out = rs.reconstruct_data(tiny_degraded); },
         "64 B chunks: inversion memoized");
}

void bench_codec() {
  const ec::ObjectCodec codec(ec::CodecParams{9, 3});
  const Bytes payload = deterministic_payload("bench", 1_MB);
  const std::string active = gf::backend_name(gf::active_backend());
  record("object_codec_round_trip", active, 1_MB, [&] {
    auto encoded = codec.encode(BytesView(payload));
    auto decoded = codec.decode(encoded.object_size, encoded.chunks);
  });

  // One verify-mode read check of a 1 MB object (ReadStrategy::
  // verify_payload): three data chunks replaced by parity, and every
  // surviving data chunk a distinct copy, so each of the k rows is either
  // rebuilt or compared byte for byte against the write-time chunks.
  store::BackendCluster backend(6, ec::CodecParams{9, 3},
                                std::make_shared<ec::RoundRobinPlacement>());
  backend.put_object("bench", BytesView(payload));
  const store::WrittenObject& written = backend.written("bench");
  std::vector<ec::Chunk> degraded;
  for (ChunkIndex i = 3; i < 12; ++i) {
    const SharedBytes stored = *backend.get_chunk(ChunkId{"bench", i});
    degraded.push_back(ec::Chunk{i, SharedBytes::copy_of(stored)});
  }
  ec::DecodeScratch scratch;
  record("verify", active, 1_MB, [&] {
    if (!written.matches(codec.data_views(degraded, scratch))) std::abort();
  }, "1 MB object, 3 data rows erased, k rows checked");
}

// -------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print_json() {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < results().size(); ++i) {
    const Result& r = results()[i];
    os << "  {\"bench\": \"" << json_escape(r.bench) << "\", \"backend\": \""
       << json_escape(r.backend) << "\", \"bytes\": " << r.bytes
       << ", \"mb_per_s\": " << r.mb_per_s
       << ", \"ns_per_op\": " << r.ns_per_op;
    if (!r.note.empty()) os << ", \"note\": \"" << json_escape(r.note) << "\"";
    os << "}" << (i + 1 < results().size() ? "," : "") << "\n";
  }
  os << "]\n";
  std::cout << os.str();
}

void print_table() {
  std::printf("%-28s %-11s %12s %14s %14s\n", "bench", "backend", "bytes",
              "MB/s", "ns/op");
  for (const Result& r : results()) {
    std::printf("%-28s %-11s %12zu %14.1f %14.1f  %s\n", r.bench.c_str(),
                r.backend.c_str(), r.bytes, r.mb_per_s, r.ns_per_op,
                r.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--quick") {
      g_budget_ms = 10.0;
    } else {
      std::cerr << "usage: bench_micro_ec [--json] [--quick]\n";
      return 2;
    }
  }

  if (!json) {
    std::cout << "gf backend (auto): "
              << gf::backend_name(gf::active_backend()) << "\n";
  }
  bench_kernels();
  bench_rs();
  bench_codec();
  if (json) {
    print_json();
  } else {
    print_table();
  }
  return 0;
}

// Extension experiment T: the pluggable memory backend and the host-RAM
// memtest engine (docs/BACKEND.md).  Gates the properties that make the
// backend seam trustworthy, then measures what it buys:
//
//   * cross-backend identity — every gated library algorithm produces
//     the same signature, op counts and verdict on the behavioral
//     simulator and on mmap'd host RAM;
//   * jobs-invariance — the deterministic report is byte-identical for
//     every worker count (shards are a pure function of the size);
//   * the mismatch path works — an injected single-bit error is caught,
//     logged and fails the run;
//   * huge-page requests degrade gracefully when the host has none;
//   * host RAM is marched faster than the simulator (word-width batching
//     against a direct mapping vs virtual calls per access).
//
// It then splits the 256 MiB host-RAM point into layers: the engine end
// to end and per phase kind, against a plain fill loop and a plain
// fill-then-verify loop over a separately mapped buffer of the same size
// on the same number of threads (the memory-bandwidth ceiling).
//
// Emits BENCH_backend.json with the gate verdicts, a sim-vs-hostram
// throughput table (sustained read/write GiB/s per configuration) and the
// layer table.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "backend/hostram_backend.h"
#include "backend/memtest.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "march/library.h"

namespace {

using namespace pmbist;

backend::MemtestReport run(const march::MarchAlgorithm& alg,
                           std::uint64_t size_bytes,
                           backend::BackendKind kind, int jobs,
                           int backgrounds, bool inject = false,
                           bool huge_pages = false) {
  backend::MemtestOptions opts;
  opts.size_bytes = size_bytes;
  opts.backgrounds = backgrounds;
  opts.jobs = jobs;
  opts.backend = kind;
  opts.inject_error = inject;
  opts.huge_pages = huge_pages;
  return backend::run_memtest(alg, opts);
}

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Deterministic report minus the header line (which names the backend).
std::string report_body(const backend::MemtestReport& report) {
  const auto text = backend::format_memtest_report(report);
  return text.substr(text.find('\n') + 1);
}

/// Sustained read/write GiB/s with the formatter's attribution rule: a
/// mixed phase's wall time splits between reads and writes in proportion
/// to bytes moved.
std::pair<double, double> sustained_gbps(const backend::MemtestReport& r) {
  double rb_total = 0.0, wb_total = 0.0, rs = 0.0, ws = 0.0;
  for (const auto& p : r.phases) {
    if (p.is_pause) continue;
    const double rb = static_cast<double>(p.reads) * sizeof(backend::Word);
    const double wb = static_cast<double>(p.writes) * sizeof(backend::Word);
    if (rb + wb <= 0.0) continue;
    const double tr = p.seconds * rb / (rb + wb);
    rs += tr;
    ws += p.seconds - tr;
    rb_total += rb;
    wb_total += wb;
  }
  return {rs > 0.0 ? rb_total / kGiB / rs : 0.0,
          ws > 0.0 ? wb_total / kGiB / ws : 0.0};
}

/// GiB/s over the engine's write-only, read-only and mixed phases.
struct PhaseRates {
  double write_only = 0.0;
  double read_only = 0.0;
  double mixed = 0.0;
};

PhaseRates phase_rates(const backend::MemtestReport& r) {
  double bytes[3] = {0.0, 0.0, 0.0};
  double secs[3] = {0.0, 0.0, 0.0};
  for (const auto& p : r.phases) {
    if (p.is_pause) continue;
    const int kind = p.reads == 0 ? 0 : (p.writes == 0 ? 1 : 2);
    bytes[kind] += static_cast<double>(p.reads + p.writes) *
                   sizeof(backend::Word);
    secs[kind] += p.seconds;
  }
  const auto rate = [&](int k) {
    return secs[k] > 0.0 ? bytes[k] / kGiB / secs[k] : 0.0;
  };
  return {rate(0), rate(1), rate(2)};
}

/// The ceiling: a plain fill, and a plain fill followed by a verify,
/// over a separately mapped buffer of `bytes`, split into `jobs` equal
/// slices on the engine's worker pool.  Best of three after a first-touch
/// fill, so page faults stay out of the figures.
struct RawLoops {
  double write_gbps = 0.0;
  double rw_gbps = 0.0;  ///< fill + verify bytes over their summed time
  bool verified = true;
};

RawLoops raw_loops(std::uint64_t bytes, int jobs) {
  using Clock = std::chrono::steady_clock;
  backend::HostRamBackend buffer{backend::memtest_geometry(bytes)};
  const std::span<backend::Word> words = buffer.mapped_words();
  const std::size_t slice = words.size() / static_cast<std::size_t>(jobs);
  const auto fill = [&](backend::Word pattern) {
    common::parallel_shards(jobs, jobs, [&](int t) {
      const auto first = words.begin() + static_cast<std::ptrdiff_t>(
                                             slice * static_cast<std::size_t>(t));
      std::fill(first, first + static_cast<std::ptrdiff_t>(slice), pattern);
    });
  };
  std::vector<char> slice_ok(static_cast<std::size_t>(jobs), 1);
  const auto verify = [&](backend::Word pattern) {
    common::parallel_shards(jobs, jobs, [&](int t) {
      const backend::Word* w = words.data() + slice * static_cast<std::size_t>(t);
      backend::Word diff = 0;
      for (std::size_t i = 0; i < slice; ++i) diff |= w[i] ^ pattern;
      slice_ok[static_cast<std::size_t>(t)] &= diff == 0 ? 1 : 0;
    });
  };
  fill(0);
  RawLoops out;
  const double gib = static_cast<double>(slice * static_cast<std::size_t>(jobs) *
                                         sizeof(backend::Word)) / kGiB;
  for (int rep = 0; rep < 3; ++rep) {
    const backend::Word pattern = 0x5555'5555'5555'5555ull << (rep & 1);
    const auto a = Clock::now();
    fill(pattern);
    const auto b = Clock::now();
    verify(pattern);
    const auto c = Clock::now();
    const double fill_s = std::chrono::duration<double>(b - a).count();
    const double both_s = std::chrono::duration<double>(c - a).count();
    out.write_gbps = std::max(out.write_gbps, gib / fill_s);
    out.rw_gbps = std::max(out.rw_gbps, 2.0 * gib / both_s);
  }
  for (const char ok : slice_ok) out.verified = out.verified && ok != 0;
  return out;
}

struct SweepPoint {
  std::string backend;
  std::uint64_t size_bytes = 0;
  double read_gbps = 0.0;
  double write_gbps = 0.0;
  double wall_s = 0.0;
};

}  // namespace

int main() {
  using namespace pmbist;
  using namespace pmbist::bench;

  std::printf("=== Pluggable memory backend: sim-vs-hostram identity and "
              "host-RAM throughput ===\n\n");

  Checker c;
  constexpr std::uint64_t kMiB = 1ull << 20;

  // Gate 1: cross-backend identity over gated library algorithms.
  bool identical = true;
  bool all_pass = true;
  for (const char* name : {"MATS+", "March C", "March C+", "March LR"}) {
    const auto& alg = march::by_name(name);
    const auto sim = run(alg, 1 * kMiB, backend::BackendKind::Sim, 2, 2);
    const auto host = run(alg, 1 * kMiB, backend::BackendKind::HostRam, 2, 2);
    identical &= report_body(sim) == report_body(host) &&
                 sim.signature == host.signature;
    all_pass &= sim.passed() && host.passed();
    std::printf("  %-10s  sim 0x%08llX  hostram 0x%08llX  %s\n", name,
                static_cast<unsigned long long>(sim.signature),
                static_cast<unsigned long long>(host.signature),
                sim.signature == host.signature ? "identical" : "DIFFER");
  }
  std::printf("\n");
  c.check(identical, "every gated library algorithm produces an identical "
                     "deterministic report on sim and hostram");
  c.check(all_pass, "fault-free runs PASS on both backends");

  // Gate 2: jobs-invariance of the deterministic report.
  const auto& march_c = march::by_name("March C");
  std::string reference;
  bool jobs_invariant = true;
  for (const int jobs : {1, 2, 4, 8}) {
    const auto r = run(march_c, 4 * kMiB, backend::BackendKind::HostRam,
                       jobs, 2);
    const auto text = backend::format_memtest_report(r);
    if (reference.empty())
      reference = text;
    else
      jobs_invariant &= text == reference;
  }
  c.check(jobs_invariant, "the deterministic report is byte-identical for "
                          "jobs in {1, 2, 4, 8}");

  // Gate 3: the injection self-test exercises the mismatch path.
  const auto injected =
      run(march_c, 4 * kMiB, backend::BackendKind::HostRam, 2, 1, true);
  c.check(!injected.passed() && injected.mismatches == 1 &&
              injected.failures.size() == 1,
          "an injected single-bit error is caught, logged and fails the run");

  // Gate 4: huge-page requests never fail the run.
  const auto huge = run(march_c, 4 * kMiB, backend::BackendKind::HostRam, 2,
                        1, false, true);
  c.check(huge.completed && huge.passed(),
          "a huge-page request degrades gracefully when unavailable");

  // Throughput sweep: March C, one background, one pass.  The simulator
  // point uses a small buffer (virtual-call path); host RAM marches real
  // memory through the direct mapping.
  std::vector<SweepPoint> sweep;
  auto sweep_point = [&](backend::BackendKind kind, std::uint64_t bytes) {
    const auto r = run(march_c, bytes, kind, 0, 1);
    const auto [rd, wr] = sustained_gbps(r);
    const std::string bname{backend::to_string(kind)};
    sweep.push_back({bname, bytes, rd, wr, r.wall_seconds});
    std::printf("  %-8s %6llu MiB  read %8.2f GiB/s  write %8.2f GiB/s  "
                "wall %7.3f s\n", bname.c_str(),
                static_cast<unsigned long long>(bytes >> 20), rd, wr,
                r.wall_seconds);
    return r;
  };
  std::printf("\n  March C, 1 background, 1 pass:\n");
  const auto sim_point = sweep_point(backend::BackendKind::Sim, 4 * kMiB);
  sweep_point(backend::BackendKind::HostRam, 4 * kMiB);
  sweep_point(backend::BackendKind::HostRam, 64 * kMiB);
  const auto host_point =
      sweep_point(backend::BackendKind::HostRam, 256 * kMiB);
  std::printf("\n");

  const auto [sim_rd, sim_wr] = sustained_gbps(sim_point);
  const auto [host_rd, host_wr] = sustained_gbps(host_point);
  c.check(host_rd > sim_rd && host_wr > sim_wr,
          "host RAM is marched faster than the behavioral simulator");

  // Layer table: the 256 MiB engine run against the raw loops, same size,
  // same thread count, same run.  The engine maps a fresh buffer per run,
  // so its write-only phase includes first-touch page faults; the raw
  // loops are timed after a first-touch fill.
  const int threads = common::resolve_jobs(0);
  const RawLoops raw = raw_loops(host_point.buffer_bytes, threads);
  const PhaseRates engine = phase_rates(host_point);
  const double engine_gbps =
      static_cast<double>(host_point.reads + host_point.writes) *
      sizeof(backend::Word) / kGiB / host_point.wall_seconds;
  const double ceiling_frac = raw.rw_gbps > 0.0 ? engine_gbps / raw.rw_gbps : 0.0;
  const std::pair<const char*, double> layers[] = {
      {"engine: March C end to end", engine_gbps},
      {"engine: write-only phases", engine.write_only},
      {"engine: read-only phases", engine.read_only},
      {"engine: read+write phases", engine.mixed},
      {"raw: fill loop", raw.write_gbps},
      {"raw: fill + verify loop", raw.rw_gbps},
  };
  std::printf("  Layers, %llu MiB, %d threads:\n",
              static_cast<unsigned long long>(host_point.buffer_bytes >> 20),
              threads);
  for (const auto& [name, gbps] : layers)
    std::printf("    %-30s %8.2f GiB/s\n", name, gbps);
  std::printf("    %-30s %8.2f\n\n", "engine / fill + verify", ceiling_frac);
  c.check(raw.verified, "the raw fill + verify loop reads back its pattern");

  if (std::FILE* out = std::fopen("BENCH_backend.json", "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"gates\": {\n"
                 "    \"cross_backend_identical\": %s,\n"
                 "    \"jobs_invariant\": %s,\n"
                 "    \"injection_detected\": %s,\n"
                 "    \"huge_page_fallback\": %s\n"
                 "  },\n"
                 "  \"sweep\": [\n",
                 identical && all_pass ? "true" : "false",
                 jobs_invariant ? "true" : "false",
                 !injected.passed() ? "true" : "false",
                 huge.passed() ? "true" : "false");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& p = sweep[i];
      std::fprintf(out,
                   "    {\"backend\": \"%s\", \"size_mb\": %llu, "
                   "\"read_gbps\": %.2f, \"write_gbps\": %.2f, "
                   "\"wall_s\": %.3f}%s\n",
                   p.backend.c_str(),
                   static_cast<unsigned long long>(p.size_bytes >> 20),
                   p.read_gbps, p.write_gbps, p.wall_s,
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"layers\": {\"size_mb\": %llu, \"threads\": %d, "
                 "\"engine_gbps\": %.2f, \"engine_write_only_gbps\": %.2f, "
                 "\"engine_read_only_gbps\": %.2f, "
                 "\"engine_read_write_gbps\": %.2f, "
                 "\"raw_write_gbps\": %.2f, \"raw_write_verify_gbps\": %.2f, "
                 "\"ceiling_frac\": %.3f}\n"
                 "}\n",
                 static_cast<unsigned long long>(host_point.buffer_bytes >> 20),
                 threads, engine_gbps, engine.write_only, engine.read_only,
                 engine.mixed, raw.write_gbps, raw.rw_gbps, ceiling_frac);
    std::fclose(out);
    std::printf("wrote BENCH_backend.json\n\n");
  }

  return c.finish("bench_backend");
}

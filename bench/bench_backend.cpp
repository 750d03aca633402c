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
// to end and per phase kind, against one raw loop per phase kind (a
// streaming fill, a vector verify, a verify + rewrite) over a separately
// mapped buffer of the same size on the same number of threads, and their
// mix in the engine's own phase bytes (the memory-bandwidth ceiling).  The
// raw loops are the engine's own block walks (backend/memtest_walk.h) with
// no march, op count or MISR around them: the table shows what the march
// and fold layers cost, but a slower walk slows the engine and the raw
// rows together, so it cannot show that.  Plain C++ loops are no ceiling
// for the AVX-512 walks (docs/BACKEND.md, "Benchmarks").
//
// Emits BENCH_backend.json with the gate verdicts, a sim-vs-hostram
// throughput table (sustained read/write GiB/s per configuration) and the
// layer table.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "backend/hostram_backend.h"
#include "backend/memtest.h"
#include "backend/memtest_walk.h"
#include "bist/misr.h"
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

/// 0: write-only phase, 1: read-only, 2: read+write.
int phase_kind(const backend::MemtestPhase& p) {
  return p.reads == 0 ? 0 : (p.writes == 0 ? 1 : 2);
}

double phase_gib(const backend::MemtestPhase& p) {
  return static_cast<double>(p.reads + p.writes) * sizeof(backend::Word) /
         kGiB;
}

/// GiB/s over the engine's write-only, read-only and mixed phases.
struct PhaseRates {
  double write_only = 0.0;
  double read_only = 0.0;
  double mixed = 0.0;
};

PhaseRates phase_rates(const backend::MemtestReport& r) {
  double gib[3] = {0.0, 0.0, 0.0};
  double secs[3] = {0.0, 0.0, 0.0};
  for (const auto& p : r.phases) {
    if (p.is_pause) continue;
    gib[phase_kind(p)] += phase_gib(p);
    secs[phase_kind(p)] += p.seconds;
  }
  const auto rate = [&](int k) {
    return secs[k] > 0.0 ? gib[k] / secs[k] : 0.0;
  };
  return {rate(0), rate(1), rate(2)};
}

/// The ceiling: the engine's own block walks (backend/memtest_walk.h) with
/// no march, op count or MISR around them, one per phase kind, over a
/// separately mapped buffer of `bytes` cut into the engine's shards and
/// run on `jobs` workers of its pool: a streaming fill (SM0 `w`), a vector
/// verify (SM5 `r`), and a verify that rewrites each 256-word block once
/// it is checked (SM1 `rw`).  Best of five after a first-touch fill, so
/// page faults stay out of the figures.  These bound the walks' march and
/// fold layers, not the walks themselves.
struct RawLoops {
  double write_gbps = 0.0;    ///< streaming fill
  double read_gbps = 0.0;     ///< vector verify
  double rewrite_gbps = 0.0;  ///< verify + rewrite, bytes read and written
  double rw_gbps = 0.0;       ///< fill + verify bytes over their summed time
  bool verified = true;
};

RawLoops raw_loops(std::uint64_t bytes, int jobs) {
  using Clock = std::chrono::steady_clock;
  const auto geometry = backend::memtest_geometry(bytes);
  backend::HostRamBackend buffer{geometry};
  const std::span<backend::Word> words = buffer.mapped_words();
  const int shards = backend::memtest_shards(geometry);
  const std::size_t slice = words.size() / static_cast<std::size_t>(shards);
  std::vector<char> slice_ok(static_cast<std::size_t>(shards), 1);
  // Runs the walk of SMi `shape` with `ops` over every shard, block by
  // block as the engine does; a shard with any mismatch is marked.
  constexpr std::size_t kBlock = 256;
  const auto walk = [&](int shape, std::vector<backend::KernelOp> ops) {
    const backend::BlockWalk block = backend::block_walk(shape, false);
    common::parallel_shards(jobs, shards, [&](int t) {
      const auto s = static_cast<std::size_t>(t);
      backend::Word* w = words.data() + slice * s;
      std::array<bist::MisrDeviation, kBlock> hits;
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < slice; i += kBlock) {
        mismatches += block(w + i, std::min(kBlock, slice - i), ops, hits.data());
      }
      backend::stream_fence();
      if (mismatches != 0) slice_ok[s] = 0;
    });
  };
  const auto fill = [&](backend::Word p) { walk(0, {{p, false}}); };
  const auto verify = [&](backend::Word p) { walk(5, {{p, true}}); };
  const auto rewrite = [&](backend::Word from, backend::Word to) {
    walk(1, {{from, true}, {to, false}});
  };
  fill(0);
  RawLoops out;
  const double gib = static_cast<double>(slice * static_cast<std::size_t>(shards) *
                                         sizeof(backend::Word)) / kGiB;
  const auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  for (int rep = 0; rep < 5; ++rep) {
    const backend::Word pattern = 0x5555'5555'5555'5555ull << (rep & 1);
    // March C's order: a streaming fill, read+write passes, a verify.
    auto start = Clock::now();
    fill(pattern);
    const double fill_s = since(start);
    start = Clock::now();
    rewrite(pattern, ~pattern);
    rewrite(~pattern, pattern);
    const double rewrite_s = since(start);
    start = Clock::now();
    verify(pattern);
    const double verify_s = since(start);
    out.write_gbps = std::max(out.write_gbps, gib / fill_s);
    out.read_gbps = std::max(out.read_gbps, gib / verify_s);
    out.rewrite_gbps = std::max(out.rewrite_gbps, 4.0 * gib / rewrite_s);
    out.rw_gbps = std::max(out.rw_gbps, 2.0 * gib / (fill_s + verify_s));
  }
  for (const char ok : slice_ok) out.verified = out.verified && ok != 0;
  return out;
}

/// GiB/s the raw loops reach over the engine's own phases: each phase's
/// bytes at the raw rate of its kind.  A read+write pass overlaps its
/// write-backs with its reads, so "fill + verify" does not bound it; this
/// mix does.
double raw_phase_mix_gbps(const backend::MemtestReport& r,
                          const RawLoops& raw) {
  const double rate[3] = {raw.write_gbps, raw.read_gbps, raw.rewrite_gbps};
  double gib = 0.0;
  double secs = 0.0;
  for (const auto& p : r.phases) {
    if (p.is_pause) continue;
    gib += phase_gib(p);
    secs += phase_gib(p) / rate[phase_kind(p)];
  }
  return secs > 0.0 ? gib / secs : 0.0;
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
  const double mix_gbps = raw_phase_mix_gbps(host_point, raw);
  const double ceiling_frac = mix_gbps > 0.0 ? engine_gbps / mix_gbps : 0.0;
  const std::pair<const char*, double> layers[] = {
      {"engine: March C end to end", engine_gbps},
      {"engine: write-only phases", engine.write_only},
      {"engine: read-only phases", engine.read_only},
      {"engine: read+write phases", engine.mixed},
      {"raw: fill loop", raw.write_gbps},
      {"raw: verify loop", raw.read_gbps},
      {"raw: verify + rewrite loop", raw.rewrite_gbps},
      {"raw: fill + verify loop", raw.rw_gbps},
      {"raw: March C phase mix", mix_gbps},
  };
  std::printf("  Layers, %llu MiB, %d threads:\n",
              static_cast<unsigned long long>(host_point.buffer_bytes >> 20),
              threads);
  for (const auto& [name, gbps] : layers)
    std::printf("    %-30s %8.2f GiB/s\n", name, gbps);
  std::printf("    %-30s %8.2f\n\n", "engine / raw phase mix", ceiling_frac);
  c.check(raw.verified,
          "the raw verify and rewrite loops read back their patterns");

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
                 "\"raw_write_gbps\": %.2f, \"raw_verify_gbps\": %.2f, "
                 "\"raw_rewrite_gbps\": %.2f, "
                 "\"raw_write_verify_gbps\": %.2f, "
                 "\"raw_phase_mix_gbps\": %.2f, \"ceiling_frac\": %.3f}\n"
                 "}\n",
                 static_cast<unsigned long long>(host_point.buffer_bytes >> 20),
                 threads, engine_gbps, engine.write_only, engine.read_only,
                 engine.mixed, raw.write_gbps, raw.read_gbps,
                 raw.rewrite_gbps, raw.rw_gbps, mix_gbps, ceiling_frac);
    std::fclose(out);
    std::printf("wrote BENCH_backend.json\n\n");
  }

  return c.finish("bench_backend");
}

// memtest_dram: March C over a 1 GiB host-RAM buffer (8x+ the LLC), one
// background, jobs = half the host threads.  The only workload bound by DRAM
// bandwidth and the serial MISR chain; it bypasses the campaign kernel,
// soc and serve.

#include <sys/mman.h>

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <thread>

#include "backend/hostram_backend.h"
#include "backend/memtest.h"
#include "bist/misr.h"
#include "march/library.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace be = pmbist::backend;
using pmbist::memsim::Word;

constexpr std::uint64_t kBufferBytes = 1ull << 30;
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

struct Rates {
  double write_only = 0.0;  ///< GiB/s over write-only phases
  double read_only = 0.0;   ///< GiB/s over read-only phases
  double mixed = 0.0;       ///< GiB/s over read+write phases
  double sustained_read = 0.0;
  double sustained_write = 0.0;
};

/// Phase and sustained rates, with the report's own attribution rule
/// (backend::format_memtest_throughput): a mixed phase's time is split
/// between reads and writes in proportion to bytes moved.
Rates phase_rates(const be::MemtestReport& rep) {
  double bytes[3] = {0, 0, 0};
  double secs[3] = {0, 0, 0};
  double rb_total = 0, wb_total = 0, rs = 0, ws = 0;
  for (const be::MemtestPhase& p : rep.phases) {
    if (p.is_pause) continue;
    const double rb = static_cast<double>(p.reads) * sizeof(Word);
    const double wb = static_cast<double>(p.writes) * sizeof(Word);
    const int k = p.reads == 0 ? 0 : (p.writes == 0 ? 1 : 2);
    bytes[k] += rb + wb;
    secs[k] += p.seconds;
    if (rb + wb > 0.0) {
      const double tr = p.seconds * rb / (rb + wb);
      rs += tr;
      ws += p.seconds - tr;
      rb_total += rb;
      wb_total += wb;
    }
  }
  const auto rate = [](double b, double s) { return s > 0.0 ? b / kGiB / s : 0.0; };
  return {rate(bytes[0], secs[0]), rate(bytes[1], secs[1]),
          rate(bytes[2], secs[2]), rate(rb_total, rs), rate(wb_total, ws)};
}

std::uint64_t splittable64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

struct RawCeiling {
  double write_gbps = 0.0;
  double verify_gbps = 0.0;
  double rw_gbps = 0.0;  ///< write + verify bytes over their summed time
  bool ok = true;
};

/// Plain multi-threaded write loop and write/verify loop over a separately
/// mapped buffer of the same size, same thread count: the memory-bandwidth
/// ceiling the memtest engine is measured against.
RawCeiling raw_ceiling(std::uint64_t bytes, int threads, std::uint64_t salt) {
  RawCeiling out;
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) {
    out.ok = false;
    return out;
  }
  auto* words = static_cast<volatile std::uint64_t*>(map);
  const std::uint64_t n = bytes / sizeof(std::uint64_t);
  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    std::vector<char> ok(static_cast<std::size_t>(threads), 1);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::uint64_t lo = n * static_cast<std::uint64_t>(t) / threads;
        const std::uint64_t hi = n * static_cast<std::uint64_t>(t + 1) / threads;
        ok[static_cast<std::size_t>(t)] = body(lo, hi) ? 1 : 0;
      });
    }
    for (std::thread& th : pool) th.join();
    for (char c : ok) out.ok = out.ok && c != 0;
  };
  const auto write = [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) words[i] = splittable64(salt ^ i);
    return true;
  };
  const auto verify = [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (words[i] != splittable64(salt ^ i)) return false;
    }
    return true;
  };
  parallel(write);  // first touch: page faults stay out of the figures
  std::vector<double> w, v, rw;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t a = now_ns();
    parallel(write);
    const std::int64_t b = now_ns();
    parallel(verify);
    const std::int64_t c = now_ns();
    const double gib = static_cast<double>(bytes) / kGiB;
    w.push_back(gib / seconds_between(a, b));
    v.push_back(gib / seconds_between(b, c));
    rw.push_back(2.0 * gib / seconds_between(a, c));
  }
  ::munmap(map, bytes);
  out.write_gbps = *std::max_element(w.begin(), w.end());
  out.verify_gbps = *std::max_element(v.begin(), v.end());
  out.rw_gbps = *std::max_element(rw.begin(), rw.end());
  return out;
}

/// Serial MISR fold cost: ns per absorbed word (one dependent LFSR step).
double misr_absorb_ns(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Word> data(1u << 20);
  for (Word& x : data) x = rng.next();
  pmbist::bist::Misr misr{32};
  constexpr int kRounds = 16;
  const std::int64_t a = now_ns();
  for (int r = 0; r < kRounds; ++r) {
    for (const Word x : data) misr.absorb(x);
  }
  const std::int64_t b = now_ns();
  std::printf("misr probe signature 0x%llx over %llu words\n",
              static_cast<unsigned long long>(misr.signature()),
              static_cast<unsigned long long>(misr.absorbed()));
  return static_cast<double>(b - a) / (static_cast<double>(data.size()) * kRounds);
}

}  // namespace

Result run_memtest_dram(const Options& opt) {
  Result r;
  // Half the host threads: with one shard per vCPU every shard barrier
  // waits for the vCPU other tenants slow most, and the fastest operation
  // spread three times wider across seeds (perfbench/README.md).
  const int jobs = std::max(1, host_threads() / 2);
  const auto alg = pmbist::march::by_name("March C");
  be::MemtestOptions mopts;
  mopts.size_bytes = kBufferBytes;
  mopts.backgrounds = 1;
  mopts.jobs = jobs;
  mopts.backend = be::BackendKind::HostRam;

  // Set-up: map the buffer and fault in every page, three times.
  const double setup_s = fastest_setup_s(3, [] {
    be::HostRamBackend buf{be::memtest_geometry(kBufferBytes)};
    const auto words = buf.mapped_words();
    for (std::size_t i = 0; i < words.size(); i += 512) words[i] = 0;
  });
  r.add("setup_s", setup_s, "s");
  r.add("backend.hostram.map_s", setup_s, "s");

  // Output checks that hold for every seed (untimed).
  Rng rng{opt.seed};
  // The checks run serially: fewer parallel_shards calls, fewer chances
  // for its use-after-scope race (perfbench/README.md).
  {
    be::MemtestOptions inj = mopts;
    inj.jobs = 1;
    inj.size_bytes = (4ull << 20) << rng.below(3);
    inj.inject_error = true;
    const auto rep = be::run_memtest(alg, inj);
    r.check(rep.injected && !rep.passed() && rep.mismatches == 1,
            "memtest: an injected error must FAIL with exactly one mismatch");
  }
  {
    be::MemtestOptions small = mopts;
    small.jobs = 1;
    small.size_bytes = (64ull << 10) << rng.below(4);
    small.backgrounds = 1 + static_cast<int>(rng.below(7));
    const auto host = be::run_memtest(alg, small);
    small.backend = be::BackendKind::Sim;
    const auto sim = be::run_memtest(alg, small);
    r.check(host.passed() && sim.passed() && host.signature == sim.signature &&
                host.reads == sim.reads && host.writes == sim.writes,
            "memtest: sim and hostram signatures must agree");
  }

  // March C (10n): five reads and five writes per word, one background.
  std::vector<be::MemtestReport> reports;
  const auto op = [&](std::uint64_t i) {
    be::MemtestReport rep;
    {
      Scope s{"backend.run_memtest", i};
      rep = be::run_memtest(alg, mopts);
    }
    const std::uint64_t n = rep.geometry.num_words();
    r.check(rep.passed() && rep.buffer_bytes == kBufferBytes &&
                rep.reads == 5 * n && rep.writes == 5 * n &&
                (reports.empty() || rep.signature == reports.front().signature),
            "memtest: PASS with closed-form op counts and a stable signature");
    reports.push_back(std::move(rep));
  };

  // Every operation touches the same bytes, so the fastest one gives the
  // throughput; the per-direction rates are the best of the run as well.
  const auto e2e = [&](const LoopStats& loop) {
    const double bytes =
        static_cast<double>(reports.back().reads + reports.back().writes) * sizeof(Word);
    double read_gbps = 0.0, write_gbps = 0.0;
    for (std::size_t k = reports.size() - loop.op_s.size(); k < reports.size(); ++k) {
      const Rates rt = phase_rates(reports[k]);
      read_gbps = std::max(read_gbps, rt.sustained_read);
      write_gbps = std::max(write_gbps, rt.sustained_write);
    }
    const double gbps = bytes / kGiB / fastest(loop.op_s);
    r.add("op_ms", fastest(loop.op_s) * 1e3, "ms");
    r.add("work_per_s", gbps, "1/s");
    r.add("memtest_gbps", gbps, "GiB/s");
    r.add("memtest_read_gbps", read_gbps, "GiB/s");
    r.add("memtest_write_gbps", write_gbps, "GiB/s");
    return gbps;
  };

  const LoopStats plain = timed_loop(opt.seconds, op);
  const double gbps = e2e(plain);
  if (!opt.trace) return r;

  const std::size_t traced_from = reports.size();
  Tracer::instance().set_enabled(true);
  const LoopStats traced = timed_loop(opt.seconds, op);
  Tracer::instance().set_enabled(false);

  Rates best;
  for (std::size_t k = traced_from; k < reports.size(); ++k) {
    const Rates rt = phase_rates(reports[k]);
    best.write_only = std::max(best.write_only, rt.write_only);
    best.read_only = std::max(best.read_only, rt.read_only);
    best.mixed = std::max(best.mixed, rt.mixed);
  }
  r.add("memtest.phase.write_gbps", best.write_only, "GiB/s");
  r.add("memtest.phase.read_gbps", best.read_only, "GiB/s");
  r.add("memtest.phase.rw_gbps", best.mixed, "GiB/s");
  r.add("memtest.reads", static_cast<double>(reports.back().reads), "count");
  r.add("memtest.writes", static_cast<double>(reports.back().writes), "count");
  r.add("bist.misr.absorb_ns", misr_absorb_ns(opt.seed), "ns");

  const RawCeiling raw = raw_ceiling(kBufferBytes, jobs, opt.seed << 29);
  r.check(raw.ok, "raw ceiling: write/verify loop must read back its pattern");
  r.add("raw.write_gbps", raw.write_gbps, "GiB/s");
  r.add("raw.verify_gbps", raw.verify_gbps, "GiB/s");
  r.add("memtest.ceiling_frac", raw.rw_gbps > 0 ? gbps / raw.rw_gbps : 0.0,
        "ratio");
  finish_trace(r, opt, traced.wall_s, 1, fastest(plain.op_s),
               fastest(traced.op_s));
  return r;
}

}  // namespace perfbench

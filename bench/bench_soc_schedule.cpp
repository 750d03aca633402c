// Extension experiment: SoC-level test scheduling.  The paper's Section 1
// motivates programmable MBIST with chips carrying many heterogeneous
// embedded memories; this bench runs the 9-memory demo chip end-to-end
// through soc::Scheduler and checks the orchestration claims:
//
//   * results are bit-identical for jobs in {1, 2, 8} (determinism),
//   * the schedule never exceeds the power budget and never overlaps two
//     sessions of one controller-sharing group,
//   * modeled durations are exact (scheduled cycles == executed cycles),
//   * tightening the budget never shortens the chip test,
//   * parallel execution is >= 2x faster than --jobs 1, each side timed
//     as the fastest of 3 runs (gated only on >= 4 hardware cores),
//
// and emits the headline numbers as BENCH_soc.json.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "soc/scheduler.h"

int main() {
  using namespace pmbist;
  using namespace pmbist::bench;

  std::printf("=== SoC test scheduling (demo chip: 9 memories, shared "
              "controllers, power budget) ===\n\n");

  Checker c;

  // --- determinism + constraint compliance on the base demo chip ------
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto r1 = soc::run_soc(chip, plan, {.jobs = 1});
  const auto r2 = soc::run_soc(chip, plan, {.jobs = 2});
  const auto r8 = soc::run_soc(chip, plan, {.jobs = 8});
  c.check(r1 == r2 && r1 == r8,
          "SocResult is bit-identical for jobs in {1, 2, 8}");
  c.check(r1.all_healthy(),
          "all 9 memories healthy (7 clean, 2 repaired + retested)");

  const double budget = plan.power().budget;
  bool power_ok = true, groups_ok = true, exact_ok = true;
  for (const auto& s : r1.schedule) {
    double at_start = 0.0;
    for (const auto& o : r1.schedule)
      if (o.start_cycle <= s.start_cycle && s.start_cycle < o.end_cycle())
        at_start += o.power_weight;
    if (at_start > budget + 1e-9) power_ok = false;
    for (const auto& o : r1.schedule)
      if (&o != &s && !s.share_group.empty() &&
          s.share_group == o.share_group && s.start_cycle < o.end_cycle() &&
          o.start_cycle < s.end_cycle())
        groups_ok = false;
    const auto it = std::find_if(
        r1.instances.begin(), r1.instances.end(),
        [&](const auto& r) { return r.memory == s.memory; });
    if (it == r1.instances.end() || it->session.cycles != s.test_cycles)
      exact_ok = false;
  }
  c.check(power_ok, "summed toggle weight never exceeds the power budget");
  c.check(groups_ok, "sessions of one sharing group never overlap");
  c.check(exact_ok,
          "modeled durations are exact: scheduled == executed cycles");

  // --- budget sweep: tighter power never shortens the chip test -------
  std::printf("power-budget sweep (makespan in cycles):\n");
  auto sweep_plan = plan;
  std::uint64_t previous = 0;
  bool monotonic = true;
  for (const double b : {0.0, 96.0, 48.0, 30.0, 23.0}) {
    sweep_plan.set_power_budget(b);
    const auto schedule =
        soc::Scheduler{}.compute_schedule(chip, sweep_plan);
    std::uint64_t makespan = 0;
    for (const auto& s : schedule)
      makespan = std::max(makespan, s.end_cycle());
    std::printf("  budget %5.1f -> %8llu\n", b,
                static_cast<unsigned long long>(makespan));
    if (makespan < previous) monotonic = false;
    previous = makespan;
  }
  c.check(monotonic, "tightening the budget never shortens the makespan");

  // --- wall-clock speedup on a scaled-up chip -------------------------
  // extra_addr_bits=4 makes every array 16x larger so each session is
  // heavy enough for timing.
  // Each side is the fastest of 3 runs, the two sides taking turns: one
  // wall-clock ratio on a shared host fails whenever another tenant
  // happens to slow either side, and turns expose both to the same load.
  const auto big_chip = soc::demo_soc(4);
  auto serial = soc::run_soc(big_chip, plan, {.jobs = 1});
  auto parallel = soc::run_soc(big_chip, plan, {.jobs = 0});
  for (int run = 1; run < 3; ++run) {
    auto next_serial = soc::run_soc(big_chip, plan, {.jobs = 1});
    if (next_serial.wall_seconds < serial.wall_seconds)
      serial = std::move(next_serial);
    auto next_parallel = soc::run_soc(big_chip, plan, {.jobs = 0});
    if (next_parallel.wall_seconds < parallel.wall_seconds)
      parallel = std::move(next_parallel);
  }
  c.check(serial == parallel, "scaled chip: jobs=0 matches jobs=1 exactly");

  const unsigned cores = std::thread::hardware_concurrency();
  const double speedup = parallel.wall_seconds > 0.0
                             ? serial.wall_seconds / parallel.wall_seconds
                             : 1.0;
  std::printf("\nscaled chip (16x arrays): serial %.1f ms, all-cores %.1f ms "
              "(%.2fx on %u cores)\n\n",
              serial.wall_seconds * 1e3, parallel.wall_seconds * 1e3, speedup,
              cores);
  if (cores >= 4) {
    c.check(speedup >= 2.0,
            "parallel whole-chip test is >= 2x faster than --jobs 1 on "
            ">= 4 cores");
  } else {
    std::printf("  [note] %u hardware core(s): speedup gate (>= 2x on >= 4 "
                "cores) not applicable\n", cores);
  }

  // --- artifact -------------------------------------------------------
  if (std::FILE* json = std::fopen("BENCH_soc.json", "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"chip\": \"%s\",\n"
                 "  \"memories\": %zu,\n"
                 "  \"makespan_cycles\": %llu,\n"
                 "  \"peak_power\": %g,\n"
                 "  \"power_budget\": %g,\n"
                 "  \"healthy\": %d,\n"
                 "  \"serial_ms\": %.3f,\n"
                 "  \"parallel_ms\": %.3f,\n"
                 "  \"speedup_vs_serial\": %.3f,\n"
                 "  \"hardware_cores\": %u\n"
                 "}\n",
                 chip.name().c_str(), r1.instances.size(),
                 static_cast<unsigned long long>(r1.makespan_cycles),
                 r1.peak_power, budget, r1.healthy_count(),
                 serial.wall_seconds * 1e3, parallel.wall_seconds * 1e3,
                 speedup, cores);
    std::fclose(json);
    std::printf("wrote BENCH_soc.json\n\n");
  } else {
    c.check(false, "BENCH_soc.json is writable");
  }

  return c.finish("bench_soc_schedule");
}

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
//   * parallel execution keeps sessions running concurrently: in the
//     best of 3 all-cores runs, process CPU time is >= 1.5x the wall
//     time (gated only on >= 4 hardware cores; the wall-clock speedup
//     over --jobs 1, each side the fastest of 3 runs, is reported, not
//     gated),
//
// and emits the headline numbers as BENCH_soc.json.

#include <sys/resource.h>

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

  // --- concurrency on a scaled-up chip ------------------------------
  // extra_addr_bits=4 makes every array 16x larger so each session is
  // heavy enough for timing.  The gate is the number of threads busy on
  // average during the all-cores run (process CPU time over wall time),
  // not its speedup over --jobs 1: the vCPUs of a shared host run at
  // different speeds, so that ratio depends on which vCPU the serial run
  // lands on, while CPU time and wall time of one run slow down together.
  // The sides take turns, 3 runs each; the gate takes the best of the
  // three all-cores runs, so one run slowed by another tenant does not
  // fail it.
  const auto cpu_seconds = [] {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
  };
  const auto big_chip = soc::demo_soc(4);
  auto serial = soc::run_soc(big_chip, plan, {.jobs = 1});
  soc::SocResult parallel;
  double busy = 0.0;  ///< most threads busy on average, over the 3 runs
  for (int run = 0; run < 3; ++run) {
    if (run > 0) {
      auto next_serial = soc::run_soc(big_chip, plan, {.jobs = 1});
      if (next_serial.wall_seconds < serial.wall_seconds)
        serial = std::move(next_serial);
    }
    const double cpu_before = cpu_seconds();
    auto next_parallel = soc::run_soc(big_chip, plan, {.jobs = 0});
    const double cpu = cpu_seconds() - cpu_before;
    if (next_parallel.wall_seconds > 0.0)
      busy = std::max(busy, cpu / next_parallel.wall_seconds);
    if (run == 0 || next_parallel.wall_seconds < parallel.wall_seconds)
      parallel = std::move(next_parallel);
  }
  c.check(serial == parallel, "scaled chip: jobs=0 matches jobs=1 exactly");

  const unsigned cores = std::thread::hardware_concurrency();
  const double speedup = parallel.wall_seconds > 0.0
                             ? serial.wall_seconds / parallel.wall_seconds
                             : 1.0;
  std::printf("\nscaled chip (16x arrays): serial %.1f ms, all-cores %.1f ms "
              "(%.2fx on %u cores, %.2f threads busy on average)\n\n",
              serial.wall_seconds * 1e3, parallel.wall_seconds * 1e3, speedup,
              cores, busy);
  if (cores >= 4) {
    c.check(busy >= 1.5,
            "parallel whole-chip test keeps >= 1.5 threads busy on average "
            "on >= 4 cores");
  } else {
    std::printf("  [note] %u hardware core(s): concurrency gate (>= 1.5 "
                "busy threads on >= 4 cores) not applicable\n", cores);
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
                 "  \"busy_threads\": %.3f,\n"
                 "  \"hardware_cores\": %u\n"
                 "}\n",
                 chip.name().c_str(), r1.instances.size(),
                 static_cast<unsigned long long>(r1.makespan_cycles),
                 r1.peak_power, budget, r1.healthy_count(),
                 serial.wall_seconds * 1e3, parallel.wall_seconds * 1e3,
                 speedup, busy, cores);
    std::fclose(json);
    std::printf("wrote BENCH_soc.json\n\n");
  } else {
    c.check(false, "BENCH_soc.json is writable");
  }

  return c.finish("bench_soc_schedule");
}

// The soc and field layers on a seed-generated 24-memory chip and its
// mission profile, sim backend: Scheduler::compute_schedule, then
// Scheduler::run (bist sessions, the three controller families,
// memsim::FaultyMemory through the backend adapters), then
// field::run_field (segmentation and the in-field scheduler), then the
// lint certificate checks on both schedules.

#include <cstdio>
#include <optional>

#include "field/manager.h"
#include "field/profile.h"
#include "gen.h"
#include "lint/certify.h"
#include "soc/chip.h"
#include "soc/scheduler.h"
#include "workloads.h"

namespace perfbench {

namespace soc = pmbist::soc;
namespace field = pmbist::field;

void measure_soc_field_layer(Result& r, std::uint64_t seed, double seconds) {
  const ChipInputs in = generate_chip(seed);
  soc::ChipFile chip;
  field::MissionProfile profile;
  r.add("soc.parse_s", fastest_setup_s(21, [&] {
          chip = soc::parse_chip(in.chip);
          profile = field::parse_profile_text(in.profile);
        }),
        "s");
  const soc::SocDescription& desc = chip.description;
  const soc::TestPlan& plan = chip.plan;

  // Serial: at jobs > 1 the scheduler's and field manager's
  // parallel_shards calls can crash (perfbench/README.md, "Findings").
  const soc::Scheduler scheduler{{.jobs = 1}};
  // One transparent pass per memory (plus the BISR retest): the field
  // work is fixed by the chip, not by how many passes the windows admit.
  const field::FieldOptions fopts{.jobs = 1, .repeat_passes = false};
  std::optional<soc::SocResult> soc0;
  std::optional<field::FieldReport> field0;
  std::vector<double> schedule_s, run_s, field_s;
  const std::int64_t start = now_ns();
  do {
    const std::int64_t t0 = now_ns();
    const std::vector<soc::ScheduledSession> schedule =
        scheduler.compute_schedule(desc, plan);
    const std::int64_t t1 = now_ns();
    const soc::SocResult res = scheduler.run(desc, plan);
    const std::int64_t t2 = now_ns();
    const field::FieldReport rep = field::run_field(desc, plan, profile, fopts);
    const std::int64_t t3 = now_ns();
    schedule_s.push_back(seconds_between(t0, t1));
    run_s.push_back(seconds_between(t1, t2));
    field_s.push_back(seconds_between(t2, t3));
    if (!soc0) soc0 = res;
    if (!field0) field0 = rep;
    r.check(res.all_healthy() && rep.all_healthy(),
            "soc/field: every instance healthy after repair");
    r.check(res.schedule == schedule && res == *soc0 && rep == *field0,
            "soc/field: schedule and results identical on every run");
  } while (seconds_between(start, now_ns()) < seconds);

  const std::int64_t c0 = now_ns();
  const bool clean = pmbist::lint::certify_soc(desc, plan, soc0->schedule).empty() &&
                     pmbist::lint::certify_field(desc, plan, profile, *field0).empty();
  r.add("lint.certify_s", seconds_between(c0, now_ns()), "s");
  r.check(clean, "soc/field: certify_soc and certify_field are clean");

  // Fastest repetition of each call (see bench.h, fastest).
  std::uint64_t session_ops = 0;
  for (const soc::InstanceResult& inst : soc0->instances) {
    session_ops += inst.session.reads + inst.session.writes;
  }
  const double execute_s = fastest(run_s) - fastest(schedule_s);
  r.add("soc_wall_s", fastest(run_s), "s");
  r.add("field_wall_s", fastest(field_s), "s");
  r.add("soc.schedule_s", fastest(schedule_s), "s");
  r.add("soc.execute_s", execute_s, "s");
  r.add("soc.session_ops_per_s",
        execute_s > 0 ? static_cast<double>(session_ops) / execute_s : 0.0, "1/s");
  r.add("soc.makespan_cycles", static_cast<double>(soc0->makespan_cycles), "count");
  r.add("field.run_s", fastest(field_s), "s");
  r.add("field.sessions", static_cast<double>(field0->sessions.size()), "count");
  std::printf("soc/field layer: %d memories, %zu runs, fastest soc %.3f s, field %.3f s\n",
              in.memories, run_s.size(), fastest(run_s), fastest(field_s));
}

}  // namespace perfbench

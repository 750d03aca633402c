#pragma once
// The workloads, the layer splits their traced runs add, and the
// loop/trace scaffolding they share.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "memsim/memory.h"
#include "trace.h"

namespace perfbench {

Result run_memtest_dram(const Options& opt);
Result run_serve_mixed_tcp(const Options& opt);

/// March-layer split (universe, expand, kernel per class, format) of one
/// coverage row per (algorithm, seed), repeated for `seconds`; records the
/// march.* and campaign_faults_per_s metrics of the fastest pass and
/// checks the composed rows against march::coverage_matrix and the scalar
/// reference kernel.
void measure_march_layer(Result& r, const std::vector<std::string>& algorithms,
                         const pmbist::memsim::MemoryGeometry& geometry, int samples,
                         const std::vector<std::uint64_t>& seeds, double seconds);

/// soc and field split (parse, schedule, execute, field run, certify) on
/// the seed-generated chip and mission profile, repeated for `seconds`;
/// records the soc.*, field.*, lint.certify_s, soc_wall_s and field_wall_s
/// metrics of the fastest repetition and checks health, determinism and
/// the certificates.
void measure_soc_field_layer(Result& r, std::uint64_t seed, double seconds);

/// Prints "label: n, min, quartiles, max" of a sample of seconds, in ms.
void print_distribution(const char* label, const std::vector<double>& v);

struct LoopStats {
  std::vector<double> op_s;  ///< wall seconds of each operation
  double wall_s = 0.0;       ///< whole loop
};

/// Calls `op(i)` back to back until `seconds` have elapsed (at least
/// once), each call under a "bench.op" span.
template <class Op>
LoopStats timed_loop(double seconds, Op&& op) {
  LoopStats s;
  const std::int64_t t0 = now_ns();
  std::uint64_t i = 0;
  do {
    const std::int64_t a = now_ns();
    {
      Scope root{"bench.op", i};
      op(i);
    }
    s.op_s.push_back(seconds_between(a, now_ns()));
    ++i;
  } while (seconds_between(t0, now_ns()) < seconds);
  s.wall_s = seconds_between(t0, now_ns());
  print_distribution(Tracer::instance().enabled() ? "traced op" : "op", s.op_s);
  return s;
}

/// Fastest of `setup` repeated `times` times, in seconds (see fastest()).
template <class Setup>
double fastest_setup_s(int times, Setup&& setup) {
  std::vector<double> v;
  for (int i = 0; i < times; ++i) {
    const std::int64_t a = now_ns();
    setup();
    v.push_back(seconds_between(a, now_ns()));
  }
  return fastest(v);
}

/// Closes the traced part of a --trace 1 run: prints the per-layer
/// self-time table of the recorded spans, checks that self times cover the
/// traced loop's wall time (lanes x wall, for concurrent clients) to
/// within a tenth and names the gap when they do not, writes the Chrome
/// trace, and records the trace.* metrics.  `untraced_op_s` /
/// `traced_op_s` are the comparable operation times of the untraced and
/// traced loops; their ratio is the tracing overhead.
void finish_trace(Result& r, const Options& opt, double wall_s, int lanes,
                  double untraced_op_s, double traced_op_s);

}  // namespace perfbench

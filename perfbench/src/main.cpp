// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload for S seconds on inputs generated from N, checks its
// outputs, prints a human-readable report, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the workload runs S
// seconds untraced, then S seconds traced, and the metrics are the
// per-layer set.
// perfbench/README.md maps every metric to its layer and workload.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void print_distribution(const char* label, const std::vector<double>& v) {
  if (v.empty()) return;
  std::printf("%s ms: n=%zu min %.3f p10 %.3f p25 %.3f p50 %.3f p75 %.3f max %.3f\n",
              label, v.size(), quantile(v, 0) * 1e3, quantile(v, 0.1) * 1e3,
              quantile(v, 0.25) * 1e3,
              quantile(v, 0.5) * 1e3, quantile(v, 0.75) * 1e3, quantile(v, 1) * 1e3);
}


namespace {

/// Prints one "metric" line of the human-readable report.
void print_metric(const Metric& m) {
  std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

struct Spec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports each of them.
const Spec kEndToEnd[] = {
    {"setup_s", "s"},       {"op_ms", "ms"},  {"work_per_s", "1/s"},
    {"peak_rss_mb", "MiB"}, {"ok_frac", "ratio"},
};

/// Per-layer metrics, reported by every --trace 1 run; a layer the
/// workload does not exercise reads 0.
const Spec kPerLayer[] = {
    // Workload-level figures named after the workload they belong to.
    {"memtest_gbps", "GiB/s"},
    {"memtest_read_gbps", "GiB/s"},
    {"memtest_write_gbps", "GiB/s"},
    {"campaign_faults_per_s", "1/s"},
    {"soc_wall_s", "s"},
    {"field_wall_s", "s"},
    {"serve_rps", "1/s"},
    {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},
    {"serve.samples", "count"},
    // backend / memtest, bist MISR, raw ceiling
    {"memtest.phase.write_gbps", "GiB/s"},
    {"memtest.phase.read_gbps", "GiB/s"},
    {"memtest.phase.rw_gbps", "GiB/s"},
    {"memtest.reads", "count"},
    {"memtest.writes", "count"},
    {"bist.misr.absorb_ns", "ns"},
    {"raw.write_gbps", "GiB/s"},
    {"raw.verify_gbps", "GiB/s"},
    {"memtest.ceiling_frac", "ratio"},
    {"backend.hostram.map_s", "s"},
    // march
    {"march.universe_s", "s"},
    {"march.expand_s", "s"},
    {"march.stream_cache.hit_rate", "ratio"},
    {"march.kernel_s", "s"},
    {"march.kernel.lane_ops_per_s", "1/s"},
    {"march.kernel_s.SAF", "s"},
    {"march.kernel_s.TF", "s"},
    {"march.kernel_s.CFin", "s"},
    {"march.kernel_s.CFid", "s"},
    {"march.kernel_s.CFst", "s"},
    {"march.kernel_s.AF", "s"},
    {"march.kernel_s.SOF", "s"},
    {"march.kernel_s.DRF", "s"},
    {"march.kernel_s.IRF", "s"},
    {"march.kernel_s.WDF", "s"},
    {"march.kernel_s.RDF", "s"},
    {"march.kernel_s.DRDF", "s"},
    {"march.format_s", "s"},
    {"march.detected", "count"},
    // soc, field, lint
    {"soc.parse_s", "s"},
    {"soc.schedule_s", "s"},
    {"soc.execute_s", "s"},
    {"soc.session_ops_per_s", "1/s"},
    {"soc.makespan_cycles", "count"},
    {"field.run_s", "s"},
    {"field.sessions", "count"},
    {"lint.certify_s", "s"},
    // serve
    {"serve.accept_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.exec_ms.campaign", "ms"},
    {"serve.exec_ms.soc", "ms"},
    {"serve.exec_ms.memtest", "ms"},
    {"serve.exec_ms.lint", "ms"},
    {"serve.stream_cache.hit_rate", "ratio"},
    {"serve.lint_cache.hit_rate", "ratio"},
    // the traced run itself
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage_frac", "ratio"},
    {"trace.self_s.backend", "s"},
    {"trace.self_s.march", "s"},
    {"trace.self_s.soc", "s"},
    {"trace.self_s.field", "s"},
    {"trace.self_s.lint", "s"},
    {"trace.self_s.serve", "s"},
    {"trace.self_s.bench", "s"},
};

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"memtest_dram", run_memtest_dram},
    {"serve_mixed_tcp", run_serve_mixed_tcp},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

const Metric* find(const Result& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void finish_trace(Result& r, const Options& opt, double wall_s, int lanes,
                  double untraced_op_s, double traced_op_s) {
  const std::vector<Span> spans = Tracer::instance().spans();
  const std::vector<LayerSelf> rows = layer_self_times(spans);
  const double budget = wall_s * lanes;
  double covered = 0.0;
  std::printf("traced run: per-layer self time (wall %.3f s x %d lane%s)\n",
              wall_s, lanes, lanes == 1 ? "" : "s");
  std::printf("  %-10s %10s %12s %8s\n", "layer", "spans", "self_s", "share");
  for (const LayerSelf& row : rows) {
    std::printf("  %-10s %10llu %12.6f %7.1f%%\n", row.layer.c_str(),
                static_cast<unsigned long long>(row.spans), row.self_s,
                100.0 * row.self_s / budget);
    r.add("trace.self_s." + row.layer, row.self_s, "s");
    if (row.layer != "bench") covered += row.self_s;
  }
  const double coverage = covered / budget;
  std::printf("  layers cover %.1f%% of wall time", 100.0 * coverage);
  if (coverage < 0.9) {
    std::printf(" -- UNACCOUNTED %.3f s: benchmark-side work between layer "
                "calls (bench.op self time, client bookkeeping)",
                budget - covered);
  }
  std::printf("\n");
  const double overhead = untraced_op_s > 0 ? traced_op_s / untraced_op_s - 1.0 : 0.0;
  std::printf("  tracing overhead: traced op %.6f s vs untraced %.6f s (%+.2f%%)\n",
              traced_op_s, untraced_op_s, 100.0 * overhead);
  r.add("trace.coverage_frac", coverage, "ratio");
  r.add("trace.overhead_frac", overhead, "ratio");
  if (!opt.trace_out.empty()) {
    if (write_chrome_trace(opt.trace_out, spans)) {
      std::printf("  chrome trace: %s (%zu spans)\n", opt.trace_out.c_str(),
                  spans.size());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    }
  }
  Tracer::instance().clear();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && opt.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());

  Result r;
  try {
    r = wl->run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", wl->name, e.what());
    return 1;
  }
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("ok_frac",
        r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                        : 0.0,
        "ratio");

  std::printf("%s seed=%llu seconds=%g trace=%d: %llu checked, %llu failed\n",
              wl->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const Metric& m : r.metrics) print_metric(m);

  std::string metrics;
  const auto emit = [&](const Spec& s, double value) {
    if (!metrics.empty()) metrics += ',';
    metrics += '"';
    metrics += s.name;
    metrics += "\":{\"value\":";
    metrics += json_number(value);
    metrics += ",\"unit\":\"";
    metrics += s.unit;
    metrics += "\"}";
  };
  bool complete = true;
  if (!opt.trace) {
    for (const Spec& s : kEndToEnd) {
      const Metric* m = find(r, s.name);
      if (m == nullptr) {
        std::fprintf(stderr, "perfbench: %s did not measure %s\n", wl->name, s.name);
        complete = false;
        continue;
      }
      emit(s, m->value);
    }
  } else {
    for (const Spec& s : kPerLayer) {
      const Metric* m = find(r, s.name);
      emit(s, m != nullptr ? m->value : 0.0);
    }
  }
  if (!complete || r.attempted == 0) return 1;
  const bool correct = r.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

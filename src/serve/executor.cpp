#include "serve/executor.h"

#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "backend/memtest.h"
#include "common/cancel.h"
#include "common/hash.h"
#include "field/manager.h"
#include "field/profile.h"
#include "field/schedule_io.h"
#include "lint/certify.h"
#include "lint/driver.h"
#include "march/coverage.h"
#include "soc/chip.h"
#include "soc/plan.h"
#include "soc/schedule_io.h"
#include "soc/scheduler.h"

namespace pmbist::serve {
namespace {

/// Every lint input that can change the verdict, canonically: the request
/// line of the parsed request, minus its id.
std::uint64_t lint_key(Request req) {
  req.id.clear();
  return common::fnv1a64(request_line(req));
}

/// Wall time is host noise, so it goes to stderr, never into a payload.
std::string wall_note(double seconds) {
  char line[64];
  std::snprintf(line, sizeof line, "wall %.3f s\n", seconds);
  return line;
}

/// Records the schedule certificate: its text on stderr, exit 1 on errors.
void add_certificate(Outcome& out, lint::Report report, const char* what) {
  out.notes += report.empty() ? std::string("certificate: ") + what + " OK\n"
                              : lint::format_text(report);
  if (report.has_errors()) out.exit_code = 1;
  out.certificate = std::move(report);
}

/// Refuses a memtest buffer the host cannot hold before anything is
/// mapped.  Total, not free, memory: a busy host still runs what fits.
void require_fits_host(std::uint64_t size_bytes) {
  const std::uint64_t buffer =
      backend::memtest_geometry(size_bytes).num_words() * sizeof(memsim::Word);
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  const long page_bytes = ::sysconf(_SC_PAGESIZE);
  if (pages <= 0 || page_bytes <= 0) return;  // unknown: mmap decides
  const std::uint64_t physical = static_cast<std::uint64_t>(pages) *
                                 static_cast<std::uint64_t>(page_bytes);
  if (buffer > physical)
    throw std::runtime_error(
        "memtest buffer of " + std::to_string(buffer >> 20) +
        " MiB exceeds the host's " + std::to_string(physical >> 20) +
        " MiB of physical memory");
}

Outcome campaign_outcome(const Request& req, const Hooks& hooks) {
  const std::vector<march::MarchAlgorithm> algs{
      soc::resolve_algorithm(req.algorithm)};
  const auto classes = fault_classes(req);
  const march::CoverageOptions opts{.seed = req.seed,
                                    .max_instances_per_class = req.samples,
                                    .jobs = req.jobs,
                                    .kernel = req.kernel,
                                    .cache = hooks.streams,
                                    .cancel = hooks.cancel,
                                    .progress = hooks.progress};
  const auto rows = march::coverage_matrix(algs, classes, req.geometry, opts);
  return {.payload = march::format_coverage_table(rows, classes)};
}

Outcome soc_outcome(const Request& req, const Hooks& hooks) {
  soc::ChipFile chip = soc::parse_chip(req.chip);
  if (req.power_budget >= 0.0) chip.plan.set_power_budget(req.power_budget);
  const auto result = soc::run_soc(chip.description, chip.plan,
                                   {.jobs = req.jobs,
                                    .max_failures = req.max_failures,
                                    .backend = req.backend,
                                    .cancel = hooks.cancel,
                                    .progress = hooks.progress});
  Outcome out{.exit_code = result.all_healthy() ? 0 : 1,
              .payload = soc::format_soc_report(chip.description, chip.plan,
                                                result),
              .notes = wall_note(result.wall_seconds)};
  if (!hooks.cli.emit_schedule.empty())
    out.schedule = soc::to_schedule_text("soc", result.schedule);
  if (req.certify)
    add_certificate(
        out, lint::certify_soc(chip.description, chip.plan, result.schedule),
        "soc schedule");
  return out;
}

Outcome field_outcome(const Request& req, const Hooks& hooks) {
  const soc::ChipFile chip = soc::parse_chip(req.chip);
  const field::MissionProfile profile = field::parse_profile_text(req.profile);
  const auto report = field::run_field(chip.description, chip.plan, profile,
                                       {.jobs = req.jobs,
                                        .max_failures = req.max_failures,
                                        .backend = req.backend,
                                        .cancel = hooks.cancel,
                                        .progress = hooks.progress});
  Outcome out{.exit_code = report.all_healthy() ? 0 : 1,
              .payload = field::format_field_report(report),
              .notes = wall_note(report.wall_seconds)};
  if (!hooks.cli.emit_schedule.empty())
    out.schedule = field::to_field_schedule_text("field", report.sessions);
  if (req.certify)
    add_certificate(
        out,
        lint::certify_field(chip.description, chip.plan, profile, report),
        "field schedule");
  return out;
}

Outcome memtest_outcome(const Request& req, const Hooks& hooks) {
  // The wire carries whole MiB; only the CLI's --size can say less.
  const std::uint64_t size_bytes =
      hooks.cli.size_bytes != 0 ? hooks.cli.size_bytes : req.size_mb << 20;
  require_fits_host(size_bytes);
  const backend::MemtestOptions opts{
      .size_bytes = size_bytes,
      .passes = req.passes,
      .backgrounds = req.backgrounds,
      .jobs = req.jobs,
      .backend = req.backend,
      .huge_pages = hooks.cli.huge_pages,
      .max_failures = req.max_failures,
      .inject_error = hooks.cli.inject,
      .cancel = hooks.cancel,
      .progress = [&hooks](std::uint64_t done, std::uint64_t total) {
        if (hooks.progress)
          hooks.progress(static_cast<int>(done), static_cast<int>(total));
      }};
  const auto report =
      backend::run_memtest(soc::resolve_algorithm(req.algorithm), opts);
  // The engine reports cancellation by returning early; every kind reports
  // it as common::Cancelled.
  if (!report.completed) throw common::Cancelled{};
  return {.exit_code = report.passed() ? 0 : 1,
          .payload = backend::format_memtest_report(report),
          .notes = backend::format_memtest_throughput(report)};
}

Outcome lint_outcome(const Request& req, VerdictCache* cache) {
  const std::uint64_t key = cache != nullptr ? lint_key(req) : 0;
  if (cache != nullptr)
    if (auto hit = cache->get(key))
      return {.exit_code = hit->exit_code, .payload = std::move(hit->payload)};
  const lint::LintOptions opts{.storage_depth = req.storage_depth,
                               .buffer_depth = req.buffer_depth,
                               .chip = req.chip,
                               .profile = req.profile,
                               .certify = req.certify,
                               .against = req.against};
  const lint::Report report = lint::lint_text(req.input, req.unit, opts);
  Outcome out{.exit_code = report.has_errors() ? 1 : 0,
              .payload = lint::format_cli(report, req.unit, req.lint_json)};
  if (cache != nullptr) cache->put(key, {out.exit_code, out.payload});
  return out;
}

}  // namespace

Outcome run_request(const Request& req, const Hooks& hooks) {
  switch (req.kind) {
    case RequestKind::Campaign: return campaign_outcome(req, hooks);
    case RequestKind::Soc: return soc_outcome(req, hooks);
    case RequestKind::Field: return field_outcome(req, hooks);
    case RequestKind::Memtest: return memtest_outcome(req, hooks);
    case RequestKind::Lint: return lint_outcome(req, hooks.lints);
    case RequestKind::Cancel:
    case RequestKind::Stats: break;
  }
  throw std::logic_error("'" + std::string(to_string(req.kind)) +
                         "' is not a work request");
}

}  // namespace pmbist::serve

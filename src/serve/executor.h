#pragma once
// The one executor per request kind.
//
// run_request is the only mapping from a work Request (campaign, soc,
// field, memtest, lint) onto the engines.  `pmbist coverage/soc/field/
// memtest/lint` print what it returns, and every serve session replies
// with it, so a serve `result` carries the CLI's stdout and exit code by
// construction.  The Hooks hold what the two callers really do
// differently.

#include <atomic>
#include <functional>
#include <optional>
#include <string>

#include "lint/diagnostics.h"
#include "march/campaign.h"
#include "serve/cache.h"
#include "serve/protocol.h"

namespace pmbist::serve {

/// What a caller plugs into one run.  Serve sets the cancel flag, progress
/// and its caches; the CLI sets `cli`.
struct Hooks {
  /// Cooperative cancellation flag (common/cancel.h).
  const std::atomic<bool>* cancel = nullptr;
  /// (done, total) progress of the engine; called from worker threads.
  std::function<void(int done, int total)> progress = nullptr;
  /// Cross-request caches; nullptr = none beyond this run.
  march::StreamCache* streams = nullptr;
  VerdictCache* lints = nullptr;
  /// The values only CLI flags set (--emit-schedule, --inject,
  /// --huge-pages, memtest --size in bytes); serve leaves them default.
  CliValues cli{};
};

/// One run's results.
struct Outcome {
  int exit_code = 0;       ///< 0 ok, 1 check failed (the CLI's exit code)
  std::string payload{};   ///< the CLI's stdout, the serve `result` payload
  std::string notes{};     ///< the CLI's stderr: timing, certificate text
  std::string schedule{};  ///< soc/field with cli.emit_schedule: its file
  /// soc/field with `certify`: the schedule certificate.  exit_code is 1
  /// when it has errors.
  std::optional<lint::Report> certificate{};
};

/// Runs one work request.  Throws common::Cancelled when `hooks.cancel`
/// stops the run, and std::exception on bad input: an unknown algorithm,
/// a malformed chip, a memtest buffer larger than the host's physical
/// memory.
[[nodiscard]] Outcome run_request(const Request& req, const Hooks& hooks);

}  // namespace pmbist::serve

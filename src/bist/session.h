#pragma once
// BistSession: drives a controller against a memory under test, applying
// each issued operation, comparing read data, and logging failures — the
// role of the BIST unit's comparator and fail-capture logic.

#include "bist/controller.h"
#include "march/coverage.h"
#include "memsim/memory.h"

namespace pmbist::bist {

/// How a BIST run ended.  A session that hits the cycle bound — or is
/// preempted by the in-field manager before the controller terminates — is
/// Interrupted: its counters are valid but it carries no verdict (and no
/// signature; see MisrSessionResult / field::PassResult).
enum class SessionState : std::uint8_t {
  Interrupted,  ///< controller did not terminate; no verdict
  Completed,    ///< controller terminated within the cycle bound
};

/// Outcome of one BIST run: the op counters and failure log of the shared
/// op-application step (march::apply_op) plus the controller's cycles.
struct SessionResult : march::RunResult {
  SessionState state = SessionState::Interrupted;
  std::uint64_t cycles = 0;

  [[nodiscard]] bool completed() const noexcept {
    return state == SessionState::Completed;
  }
  [[nodiscard]] bool passed() const noexcept {
    return completed() && mismatches == 0;
  }

  friend bool operator==(const SessionResult&, const SessionResult&) = default;
};

struct SessionOptions {
  std::uint64_t max_cycles = 1'000'000'000;
  std::size_t max_failures = 64;  ///< failure-log capacity (run continues)
};

/// Runs `controller` to completion against `memory`, handing every read's
/// actual value to `observe` (see march::apply_op).
template <typename Observer>
SessionResult run_session(Controller& controller, memsim::Memory& memory,
                          const SessionOptions& options, Observer&& observe) {
  controller.reset();
  SessionResult result;
  std::size_t op_index = 0;
  while (!controller.done()) {
    if (result.cycles >= options.max_cycles) return result;  // incomplete
    ++result.cycles;
    if (const auto op = controller.step()) {
      march::apply_op(memory, *op, op_index++, result, options.max_failures,
                      observe);
    }
  }
  result.state = SessionState::Completed;
  return result;
}

/// Runs `controller` to completion against `memory` (comparator only).
inline SessionResult run_session(Controller& controller,
                                 memsim::Memory& memory,
                                 const SessionOptions& options = {}) {
  return run_session(controller, memory, options, march::IgnoreReads{});
}

}  // namespace pmbist::bist

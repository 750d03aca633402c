#pragma once
// Transparent BIST (Nicolaidis, ITC'92 — the paper's ref [7]): periodic
// in-field testing that preserves the memory contents.  The paper's
// conclusion names on-line testing as the application that the programmable
// microcode architecture extends to; this module provides the march
// transform behind it.
//
// Transform: every march data value d is replaced by s_a XOR d, where s_a
// is the content of cell a at test start.  The initializing write element
// of the original algorithm degenerates to a refresh (w s_a), every
// subsequent op XORs the original pattern onto the preserved contents, and
// the final state equals the initial state provided the algorithm leaves a
// deterministic uniform value (true of all library algorithms, whose final
// write returns each cell to d=0/1; the transform maps that to s_a).
//
// Implementation note: a hardware transparent BIST predicts read values
// with a signature register; this behavioral model keeps the per-cell seed
// vector explicitly, which is equivalent for detection purposes and keeps
// the checker exact (per-op, not signature-compaction).

#include <vector>

#include "march/coverage.h"
#include "memsim/memory.h"

namespace pmbist::diag {

struct TransparentResult {
  /// No read mismatched (counted past the failure-log cap).
  bool passed = false;
  std::vector<march::Failure> failures;
  /// True if the memory contents after the test equal the contents before
  /// (checked against the captured seed; meaningful only when passed).
  bool contents_preserved = false;
};

/// Runs the transparent transform of `alg` on `memory`.
/// `max_failures` bounds the failure log.
[[nodiscard]] TransparentResult run_transparent(
    const march::MarchAlgorithm& alg, memsim::Memory& memory,
    std::size_t max_failures = 64);

/// The transparent expansion itself (exposed for tests): the op stream of
/// `alg` with all data values XORed with the seed vector `initial`.
[[nodiscard]] march::OpStream transparent_stream(
    const march::MarchAlgorithm& alg, const memsim::MemoryGeometry& geometry,
    const std::vector<memsim::Word>& initial);

/// True when the transparent transform of `alg` leaves a non-zero XOR
/// prefix on every cell, i.e. a restoring refresh pass must follow the
/// test proper before the contents equal the seed again.
[[nodiscard]] bool transparent_restore_needed(const march::MarchAlgorithm& alg,
                                              int word_bits);

/// transparent_stream() plus, when transparent_restore_needed(), the
/// restoring refresh pass (one write of the seed per word on port 0).
/// This is the full in-field session stream: the field manager segments
/// exactly this stream so a preempted session can resume mid-restore too.
[[nodiscard]] march::OpStream transparent_stream_with_restore(
    const march::MarchAlgorithm& alg, const memsim::MemoryGeometry& geometry,
    const std::vector<memsim::Word>& initial);

}  // namespace pmbist::diag

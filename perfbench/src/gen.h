#pragma once
// Seeded input generators.  The product only ever sees what these emit:
// march DSL text, chip-file text and mission-profile text.
//
// Every generator varies content with the seed (names, data values,
// orders, defect placement, window offsets) but keeps the amount of work
// fixed (op count per cell, the multiset of geometries and controllers),
// so run-to-run spread measures the program rather than the seed.

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

/// A valid march algorithm in DSL text with exactly `ops` operations per
/// cell: the first element starts with a write, every read expects the
/// value the cell last received, element orders and chunking are random.
[[nodiscard]] std::string random_march_dsl(Rng& rng, int ops);

struct ChipInputs {
  std::string chip;     ///< chip-file text (docs/SOC.md)
  std::string profile;  ///< mission-profile text (docs/FIELD.md)
  int memories = 0;
};

/// A 24-memory chip with 10-13 address bits and 8-32-bit words, all three
/// controller kinds with two ucode and two pFSM share groups, one
/// bit-oriented repairable array carrying a single-cell defect, and a
/// matching mission profile.
[[nodiscard]] ChipInputs generate_chip(std::uint64_t seed);

}  // namespace perfbench

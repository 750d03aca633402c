#pragma once
// MISR (multiple-input signature register) response compaction.
//
// The paper's BIST datapath uses a deterministic comparator (expected data
// is regenerated on chip).  The classic alternative — standard in BIST
// practice (Bardell/McAnney/Savir, the paper's ref [1]) — compacts all
// read responses into an LFSR signature and compares one word at the end:
// cheaper observation wiring, no per-cycle expected-data distribution, at
// the cost of a 2^-w aliasing probability and the loss of per-cell failure
// data (which is why diagnostics-oriented BIST, the paper's focus, keeps
// the comparator).  Both datapaths are modeled so the trade-off can be
// measured (bench_misr_compaction).
//
// March read responses are data-independent (every algorithm starts with a
// write sweep), so the golden signature is computed by folding the
// *expected* read values of the reference expansion — exactly what a
// signature-prediction tool would emit.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bist/controller.h"
#include "bist/session.h"
#include "netlist/components.h"

namespace pmbist::bist {

using memsim::Word;

class MisrSkip;

/// Galois LFSR-based multiple-input signature register, 1..64 bits wide.
/// Feedback polynomials are primitive for the tabulated widths
/// (1-8, 16, 24, 32, 64); other widths use a maximal-position two-tap
/// default, which is sufficient for compaction (not necessarily
/// maximal-length).
class Misr {
 public:
  explicit Misr(int width, Word seed = 0);

  void reset(Word seed = 0);
  /// Folds one read response into the signature (one clock of the MISR).
  void absorb(Word value);
  /// Advances over `jump.steps()` absorbs whose fold from state 0 is
  /// `zero_fold`, leaving exactly the signature and absorbed() count the
  /// serial absorbs would.  `jump` must have this register's width.
  void skip(const MisrSkip& jump, Word zero_fold);

  [[nodiscard]] Word signature() const noexcept { return state_; }
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t absorbed() const noexcept { return count_; }

  /// Feedback polynomial (tap mask) used for `width`.
  [[nodiscard]] static Word polynomial(int width);
  /// Structural cost: scan flip-flops + feedback XORs + input XOR stage.
  [[nodiscard]] static netlist::GateInventory area(int width);

 private:
  int width_;
  Word poly_;
  Word mask_;
  Word state_ = 0;
  std::uint64_t count_ = 0;
};

/// GF(2) skip-ahead for Misr.  One absorb is linear over GF(2),
/// s' = A*s ^ v, so absorbing v_0..v_{n-1} from state s leaves
/// A^n*s ^ (the fold of the same inputs from state 0).  MisrSkip holds A^n
/// for one width as its columns, built by repeated squaring in
/// O(w^2 log n); apply() costs w word operations whatever n is.
class MisrSkip {
 public:
  MisrSkip(int width, std::uint64_t steps);

  /// A^steps * state.
  [[nodiscard]] Word apply(Word state) const noexcept;
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

 private:
  int width_;
  std::uint64_t steps_;
  std::array<Word, 64> columns_{};  ///< column j = A^steps * e_j
};

/// One read whose actual value differs from the expected stream: its
/// position within the block and the value read.
struct MisrDeviation {
  std::uint32_t index = 0;
  Word actual = 0;
};

/// Block-wise fold of a periodic expected-read stream: `period` repeated,
/// cut into blocks of `block_repeats` periods.  Every full block expects
/// the same reads, so one that read back exactly what was expected
/// advances the Misr with a single skip; a block with deviations, or a
/// shorter tail block, is folded serially with the actual values in
/// place of the expected ones.  Either way the result is bit-identical to
/// absorbing every actual read in order.
class PeriodicFold {
 public:
  PeriodicFold(int width, std::vector<Word> period,
               std::size_t block_repeats);

  /// Folds one block of `repeats` (<= block_repeats) periods.
  /// `deviations` are sorted by index, each below repeats * period size.
  void fold(Misr& misr, std::size_t repeats,
            std::span<const MisrDeviation> deviations) const;

  [[nodiscard]] const std::vector<Word>& period() const noexcept {
    return period_;
  }

 private:
  std::vector<Word> period_;
  std::size_t block_repeats_;
  MisrSkip block_skip_;
  Word block_fold_ = 0;  ///< fold of one full block from state 0
};

/// Golden signature for `alg` over `geometry`: the fold of all expected
/// read values of the reference expansion, in order.
[[nodiscard]] Word golden_signature(const march::MarchAlgorithm& alg,
                                    const memsim::MemoryGeometry& geometry,
                                    int misr_width, Word seed = 0);

/// Result of a signature-compacted BIST run.  The comparator-based session
/// result is carried along so verdicts can be compared.
struct MisrSessionResult {
  SessionResult session;  ///< comparator view (failure log etc.)
  Word signature = 0;     ///< MISR state after the run
  Word golden = 0;        ///< expected signature
  [[nodiscard]] bool signature_pass() const noexcept {
    return session.completed() && signature == golden;
  }
};

/// Runs `controller` against `memory`, compacting every read into a MISR
/// of `misr_width` bits while also keeping the comparator verdict.
MisrSessionResult run_session_misr(Controller& controller,
                                   memsim::Memory& memory, int misr_width,
                                   Word golden, Word seed = 0,
                                   const SessionOptions& options = {});

}  // namespace pmbist::bist

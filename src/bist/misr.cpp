#include "bist/misr.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "march/expand.h"

namespace pmbist::bist {

Word Misr::polynomial(int width) {
  // Galois (right-shift) tap masks; primitive for the tabulated widths.
  switch (width) {
    case 1: return 0x1;
    case 2: return 0x3;
    case 3: return 0x6;
    case 4: return 0xC;
    case 5: return 0x14;
    case 6: return 0x30;
    case 7: return 0x60;
    case 8: return 0xB8;
    case 16: return 0xB400;
    case 24: return 0xE10000;
    case 32: return 0xA3000000u;
    case 64: return 0xD800000000000000ull;
    default: break;
  }
  if (width < 1 || width > 64)
    throw std::invalid_argument("MISR width must be 1..64");
  // Two top taps: x^w + x^(w-1) + 1 — adequate compaction default.
  return (Word{0x3} << (width - 2));
}

Misr::Misr(int width, Word seed)
    : width_{width},
      poly_{polynomial(width)},
      mask_{width >= 64 ? ~Word{0} : ((Word{1} << width) - 1)} {
  reset(seed);
}

void Misr::reset(Word seed) {
  state_ = seed & mask_;
  count_ = 0;
}

void Misr::absorb(Word value) {
  const bool feedback = state_ & 1u;
  state_ >>= 1;
  if (feedback) state_ ^= poly_;
  state_ = (state_ ^ value) & mask_;
  ++count_;
}

void Misr::skip(const MisrSkip& jump, Word zero_fold) {
  assert(jump.width() == width_);
  state_ = (jump.apply(state_) ^ zero_fold) & mask_;
  count_ += jump.steps();
}

namespace {

/// Columns of M*N, both given as columns.
std::array<Word, 64> compose(const std::array<Word, 64>& m,
                             const std::array<Word, 64>& n, int width) {
  std::array<Word, 64> out{};
  for (int j = 0; j < width; ++j) {
    for (int i = 0; i < width; ++i) {
      out[j] ^= m[i] & (Word{0} - ((n[j] >> i) & 1));
    }
  }
  return out;
}

}  // namespace

MisrSkip::MisrSkip(int width, std::uint64_t steps)
    : width_{width}, steps_{steps} {
  (void)Misr::polynomial(width);  // validates the width
  // power = A (one zero-input clock per basis vector), columns_ = I.
  std::array<Word, 64> power{};
  for (int j = 0; j < width; ++j) {
    Misr one{width, Word{1} << j};
    one.absorb(0);
    power[j] = one.signature();
    columns_[j] = Word{1} << j;
  }
  for (std::uint64_t n = steps; n != 0; n >>= 1) {
    if (n & 1) columns_ = compose(power, columns_, width);
    if (n > 1) power = compose(power, power, width);
  }
}

Word MisrSkip::apply(Word state) const noexcept {
  Word out = 0;
  for (int j = 0; j < width_; ++j) {
    out ^= columns_[j] & (Word{0} - ((state >> j) & 1));
  }
  return out;
}

PeriodicFold::PeriodicFold(int width, std::vector<Word> period,
                           std::size_t block_repeats)
    : period_{std::move(period)},
      block_repeats_{block_repeats},
      block_skip_{width, block_repeats * period_.size()} {
  Misr zero{width, 0};
  for (std::size_t r = 0; r < block_repeats_; ++r) {
    for (const Word v : period_) zero.absorb(v);
  }
  block_fold_ = zero.signature();
}

void PeriodicFold::fold(Misr& misr, std::size_t repeats,
                        std::span<const MisrDeviation> deviations) const {
  if (repeats == block_repeats_ && deviations.empty()) {
    misr.skip(block_skip_, block_fold_);
    return;
  }
  auto next = deviations.begin();
  std::uint32_t index = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const Word expected : period_) {
      if (next != deviations.end() && next->index == index) {
        misr.absorb(next->actual);
        ++next;
      } else {
        misr.absorb(expected);
      }
      ++index;
    }
  }
  assert(next == deviations.end());
}

netlist::GateInventory Misr::area(int width) {
  netlist::GateInventory inv =
      netlist::register_bank(width, netlist::RegisterKind::Scan);
  // Feedback XOR per tap, input XOR per bit, plus the final compare
  // against the golden signature.
  inv.add(netlist::Cell::Xor2, __builtin_popcountll(polynomial(width)));
  inv += netlist::xor_bank(width);
  inv += netlist::equality_comparator(width);
  return inv;
}

Word golden_signature(const march::MarchAlgorithm& alg,
                      const memsim::MemoryGeometry& geometry, int misr_width,
                      Word seed) {
  Misr misr{misr_width, seed};
  for (const auto& op : march::expand(alg, geometry))
    if (op.kind == march::MemOp::Kind::Read) misr.absorb(op.data);
  return misr.signature();
}

MisrSessionResult run_session_misr(Controller& controller,
                                   memsim::Memory& memory, int misr_width,
                                   Word golden, Word seed,
                                   const SessionOptions& options) {
  Misr misr{misr_width, seed};
  MisrSessionResult result;
  result.golden = golden;
  result.session = run_session(controller, memory, options,
                               [&misr](Word actual) { misr.absorb(actual); });
  if (result.session.completed()) result.signature = misr.signature();
  return result;
}

}  // namespace pmbist::bist

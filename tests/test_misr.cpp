// MISR response-compaction tests: LFSR mechanics, GF(2) skip-ahead and
// the block fold built on it, golden-signature prediction, verdict
// agreement with the deterministic comparator across a fault zoo, and
// measured aliasing behavior.

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>
#include <vector>

#include "bist/misr.h"
#include "march/library.h"
#include "mbist_ucode/controller.h"

namespace {

using namespace pmbist;
using bist::Misr;
using memsim::MemoryGeometry;

TEST(Misr, WidthValidation) {
  EXPECT_THROW((void)Misr::polynomial(0), std::invalid_argument);
  EXPECT_THROW((void)Misr::polynomial(65), std::invalid_argument);
  for (int w : {1, 2, 3, 4, 8, 9, 13, 16, 24, 32, 64}) {
    const auto poly = Misr::polynomial(w);
    EXPECT_NE(poly, 0u) << w;
    if (w < 64) {
      EXPECT_LT(poly, memsim::Word{1} << w) << w;
    }
  }
}

TEST(Misr, DeterministicAndSeedSensitive) {
  Misr a{8, 0}, b{8, 0}, c{8, 1};
  for (memsim::Word v : {0x12ull, 0x34ull, 0x56ull}) {
    a.absorb(v);
    b.absorb(v);
    c.absorb(v);
  }
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_NE(a.signature(), c.signature());
  EXPECT_EQ(a.absorbed(), 3u);
  a.reset();
  EXPECT_EQ(a.signature(), 0u);
  EXPECT_EQ(a.absorbed(), 0u);
}

TEST(Misr, OrderSensitivity) {
  // A signature register must distinguish permuted responses (a plain
  // XOR-accumulator would not).
  Misr a{8}, b{8};
  a.absorb(0x01);
  a.absorb(0x02);
  b.absorb(0x02);
  b.absorb(0x01);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, SingleBitErrorAlwaysChangesSignature) {
  // A single corrupted response can never alias (linearity of the LFSR:
  // the error syndrome of one flipped bit is non-zero).
  for (int flip_at : {0, 5, 9}) {
    Misr good{8}, bad{8};
    for (int i = 0; i < 10; ++i) {
      const memsim::Word v = static_cast<memsim::Word>(i * 37 % 256);
      good.absorb(v);
      bad.absorb(i == flip_at ? v ^ 0x10 : v);
    }
    EXPECT_NE(good.signature(), bad.signature()) << flip_at;
  }
}

TEST(Misr, MaximalLengthForTabulatedWidth) {
  // With a primitive polynomial and zero input, the LFSR cycles through
  // 2^w - 1 non-zero states.
  Misr m{8, 1};
  std::set<memsim::Word> seen;
  memsim::Word s = m.signature();
  for (int i = 0; i < 255; ++i) {
    EXPECT_TRUE(seen.insert(s).second) << "state repeated at step " << i;
    m.absorb(0);
    s = m.signature();
  }
  EXPECT_EQ(s, 1u);  // back to the seed after 2^8 - 1 steps
}

constexpr int kSkipWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 24, 32, 64};

TEST(MisrSkip, EqualsSerialAbsorbs) {
  // A^n*s ^ zero-state fold == n serial absorbs from s, for n across the
  // squaring boundaries.
  std::mt19937_64 rng{0x5EED'0001u};
  for (const int w : kSkipWidths) {
    for (const std::uint64_t n : {0ull, 1ull, 2ull, 3ull, 7ull, 64ull, 255ull,
                                  256ull, 1000ull}) {
      std::vector<memsim::Word> inputs(n);
      for (auto& v : inputs) v = rng();
      const memsim::Word seed = rng();
      Misr serial{w, seed}, zero{w, 0};
      for (const auto v : inputs) {
        serial.absorb(v);
        zero.absorb(v);
      }
      Misr skipped{w, seed};
      skipped.skip(bist::MisrSkip{w, n}, zero.signature());
      EXPECT_EQ(skipped.signature(), serial.signature()) << w << " " << n;
      EXPECT_EQ(skipped.absorbed(), n);
    }
  }
  EXPECT_THROW((bist::MisrSkip{0, 1}), std::invalid_argument);
  EXPECT_THROW((bist::MisrSkip{65, 1}), std::invalid_argument);
}

TEST(MisrSkip, PeriodicBlockFoldEqualsSerialMisr) {
  // Random periodic streams folded block by block must match a serial
  // Misr absorbing every actual read, for each mismatch pattern the
  // memtest kernel can produce — including every read wrong.
  enum class Pattern { None, FirstOfBlock, LastOfBlock, Straddle, Every };
  std::mt19937_64 rng{0x5EED'0002u};
  for (const int w : kSkipWidths) {
    for (std::size_t p = 1; p <= 6; ++p) {
      for (const Pattern pattern :
           {Pattern::None, Pattern::FirstOfBlock, Pattern::LastOfBlock,
            Pattern::Straddle, Pattern::Every}) {
        constexpr std::size_t kBlock = 16;  // periods per block
        std::vector<memsim::Word> period(p);
        for (auto& v : period) v = rng();
        const bist::PeriodicFold fold{w, period, kBlock};
        const std::size_t block_reads = kBlock * p;
        // Three full blocks plus a short tail block.
        const std::size_t total_repeats = 3 * kBlock + 5;
        std::vector<memsim::Word> actual;
        for (std::size_t r = 0; r < total_repeats; ++r)
          actual.insert(actual.end(), period.begin(), period.end());
        const auto flip = [&](std::size_t i) { actual[i] ^= rng() | 1; };
        switch (pattern) {
          case Pattern::None: break;
          case Pattern::FirstOfBlock: flip(block_reads); break;
          case Pattern::LastOfBlock: flip(2 * block_reads - 1); break;
          case Pattern::Straddle:
            flip(block_reads - 1);
            flip(block_reads);
            break;
          case Pattern::Every:
            for (std::size_t i = 0; i < actual.size(); ++i) flip(i);
            break;
        }

        const memsim::Word seed = rng();
        Misr serial{w, seed};
        for (const auto v : actual) serial.absorb(v);

        Misr blocked{w, seed};
        for (std::size_t first = 0; first < total_repeats; first += kBlock) {
          const std::size_t repeats =
              std::min(kBlock, total_repeats - first);
          std::vector<bist::MisrDeviation> deviations;
          for (std::size_t i = 0; i < repeats * p; ++i) {
            const memsim::Word v = actual[first * p + i];
            if (v != period[i % p]) {
              deviations.push_back({static_cast<std::uint32_t>(i), v});
            }
          }
          fold.fold(blocked, repeats, deviations);
        }
        EXPECT_EQ(blocked.signature(), serial.signature())
            << "width " << w << " period " << p << " pattern "
            << static_cast<int>(pattern);
        EXPECT_EQ(blocked.absorbed(), serial.absorbed());
      }
    }
  }
}

constexpr int kRunWidths[] = {1, 7, 8, 16, 32, 64};

TEST(MisrSkip, CleanRunFoldEqualsPerBlockFoldsAndSerialAbsorbs) {
  // One fold_clean over m clean blocks, m block folds and the serial
  // absorbs agree, with the table sized to m and to the largest m.
  constexpr std::size_t kBlock = 4;  // periods per block
  std::mt19937_64 rng{0x5EED'0003u};
  for (const int w : kRunWidths) {
    for (const std::size_t m : {0u, 1u, 2u, 3u, 255u, 256u, 8191u, 8192u}) {
      SCOPED_TRACE(::testing::Message() << "width " << w << " m " << m);
      std::vector<memsim::Word> period(1 + rng() % 3);
      for (auto& v : period) v = rng();
      const memsim::Word seed = rng();
      Misr serial{w, seed};
      Misr per_block{w, seed};
      const bist::PeriodicFold fold{w, period, kBlock};
      for (std::size_t b = 0; b < m; ++b) {
        for (std::size_t r = 0; r < kBlock; ++r) {
          for (const auto v : period) serial.absorb(v);
        }
        fold.fold(per_block, kBlock, {});
      }
      for (const std::size_t max_run : {m, std::size_t{8192}}) {
        Misr run{w, seed};
        bist::PeriodicFold{w, period, kBlock, max_run}.fold_clean(run, m);
        EXPECT_EQ(run.signature(), serial.signature()) << max_run;
        EXPECT_EQ(run.absorbed(), serial.absorbed()) << max_run;
      }
      EXPECT_EQ(per_block.signature(), serial.signature());
      EXPECT_EQ(per_block.absorbed(), serial.absorbed());
    }
  }
}

TEST(MisrSkip, CleanRunsBetweenDirtyBlocksFoldLikeSerialMisr) {
  // The memtest kernel's fold order: a run of clean full blocks is folded
  // in one fold_clean when a dirty block, a short tail block or the end
  // arrives; dirty and tail blocks are folded read by read.  Random
  // interleavings, some with a dirty first or last block and a tail.
  constexpr std::size_t kBlock = 8;  // periods per block
  std::mt19937_64 rng{0x5EED'0004u};
  for (const int w : kRunWidths) {
    for (int iteration = 0; iteration < 40; ++iteration) {
      SCOPED_TRACE(::testing::Message() << "width " << w << " iteration "
                                        << iteration);
      std::vector<memsim::Word> period(1 + rng() % 3);
      for (auto& v : period) v = rng();
      const std::size_t p = period.size();
      const std::size_t blocks = 1 + rng() % 600;
      const double clean_share = std::array{0.5, 0.9, 0.99, 1.0}[iteration % 4];
      std::vector<bool> dirty(blocks);
      for (std::size_t b = 0; b < blocks; ++b) {
        dirty[b] = std::uniform_real_distribution<double>{}(rng) >= clean_share;
      }
      if (iteration % 5 == 1) dirty.front() = true;
      if (iteration % 5 == 2) dirty.back() = true;
      const std::size_t tail = iteration % 3 == 0 ? 1 + rng() % (kBlock - 1) : 0;

      // Actual reads: expected everywhere, one to three flips per dirty
      // block (possibly the same read twice, so a dirty block can read
      // back clean), any flips in the tail.
      std::vector<memsim::Word> actual;
      for (std::size_t r = 0; r < blocks * kBlock + tail; ++r) {
        actual.insert(actual.end(), period.begin(), period.end());
      }
      for (std::size_t b = 0; b < blocks; ++b) {
        if (!dirty[b]) continue;
        for (std::uint64_t f = 0; f < 1 + rng() % 3; ++f) {
          actual[b * kBlock * p + rng() % (kBlock * p)] ^= rng() | 1;
        }
      }
      if (tail > 0 && rng() % 2 == 0) actual.back() ^= 1;

      const memsim::Word seed = rng();
      Misr serial{w, seed};
      for (const auto v : actual) serial.absorb(v);

      const bist::PeriodicFold fold{w, period, kBlock, blocks};
      Misr kernel{w, seed};
      std::size_t clean_run = 0;
      for (std::size_t first = 0; first < blocks * kBlock + tail;
           first += kBlock) {
        const std::size_t repeats = std::min(kBlock, blocks * kBlock + tail - first);
        std::vector<bist::MisrDeviation> deviations;
        for (std::size_t i = 0; i < repeats * p; ++i) {
          const memsim::Word v = actual[first * p + i];
          if (v != period[i % p]) {
            deviations.push_back({static_cast<std::uint32_t>(i), v});
          }
        }
        if (deviations.empty() && repeats == kBlock) {
          ++clean_run;
          continue;
        }
        fold.fold_clean(kernel, clean_run);
        clean_run = 0;
        fold.fold(kernel, repeats, deviations);
      }
      fold.fold_clean(kernel, clean_run);
      EXPECT_EQ(kernel.signature(), serial.signature());
      EXPECT_EQ(kernel.absorbed(), serial.absorbed());
    }
  }
}

TEST(Misr, GoldenSignatureMatchesFaultFreeRun) {
  const MemoryGeometry g{.address_bits = 5, .word_bits = 4, .num_ports = 1};
  const auto alg = march::march_c();
  const auto golden = bist::golden_signature(alg, g, 16);

  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(alg);
  memsim::SramModel mem{g, 99};
  const auto r = bist::run_session_misr(ctrl, mem, 16, golden);
  EXPECT_TRUE(r.signature_pass());
  EXPECT_TRUE(r.session.passed());
  EXPECT_EQ(r.signature, golden);
}

TEST(Misr, VerdictAgreesWithComparatorAcrossFaultZoo) {
  const MemoryGeometry g{.address_bits = 4, .word_bits = 4, .num_ports = 1};
  const auto alg = march::march_c_plus_plus();
  const int width = 16;
  const auto golden = bist::golden_signature(alg, g, width);

  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(alg);

  int detected = 0;
  int aliased = 0;
  for (auto cls : memsim::all_fault_classes()) {
    for (const auto& fault :
         march::make_fault_universe(cls, g, 11, 8)) {
      memsim::FaultyMemory mem{g, 5};
      mem.add_fault(fault);
      const auto r = bist::run_session_misr(ctrl, mem, width, golden);
      ASSERT_TRUE(r.session.completed());
      if (r.session.passed()) {
        // Undetected by the comparator: the signature must match too
        // (reads were all as expected).
        EXPECT_TRUE(r.signature_pass()) << memsim::describe(fault);
      } else {
        ++detected;
        if (r.signature_pass()) ++aliased;
      }
    }
  }
  EXPECT_GT(detected, 40);
  // Aliasing probability ~ 2^-16 per faulty run: expect none here.
  EXPECT_EQ(aliased, 0) << "of " << detected;
}

TEST(Misr, AreaScalesWithWidth) {
  const auto lib = netlist::TechLibrary::cmos5s();
  EXPECT_LT(Misr::area(4).total_ge(lib), Misr::area(16).total_ge(lib));
  EXPECT_GT(Misr::area(8).count(netlist::Cell::ScanDff), 0);
}

}  // namespace

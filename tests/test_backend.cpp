// The memory backends (backend/): the host-RAM memsim::Memory, the
// host-RAM memtest engine, and the contracts the rest of the tree relies
// on —
//
//   * HostRamBackend maps real anonymous memory but honors the same
//     geometry/masking semantics, so every library algorithm (and a fuzzed
//     corpus of generated ones) produces identical memtest signatures and
//     verdicts on both backends;
//   * memtest results are pure functions of (algorithm, size, passes,
//     backgrounds) — never of --jobs — and injected mismatches are caught
//     on both backends;
//   * every SMi shape walk of the direct-map kernel returns the same hits
//     and leaves the same memory as the generic walk;
//   * the soc scheduler and field manager run fault-free chips on either
//     backend with identical reports, and reject hostram + fault injection;
//   * the calibrated power model anchors at the reference geometry and
//     pins old-vs-new schedule feasibility.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "backend/hostram_backend.h"
#include "backend/memtest.h"
#include "backend/memtest_walk.h"
#include "bist/session.h"
#include "field/manager.h"
#include "field/profile.h"
#include "march/expand.h"
#include "march/library.h"
#include "march/march.h"
#include "march/parser.h"
#include "mbist_hardwired/controller.h"
#include "mbist_pfsm/components.h"
#include "memsim/faulty_memory.h"
#include "memsim/memory.h"
#include "netlist/tech_library.h"
#include "soc/chip.h"
#include "soc/scheduler.h"

namespace pmbist::backend {
// Tier names, not enum bytes, in the parameterized tests' ctest names.
void PrintTo(WalkTier tier, std::ostream* os) { *os << to_string(tier); }
}  // namespace pmbist::backend

namespace {

using namespace pmbist;
using backend::BackendKind;

// --- kind parsing -----------------------------------------------------

TEST(BackendKindTest, ParseAndPrintRoundTrip) {
  EXPECT_EQ(backend::parse_backend("sim"), BackendKind::Sim);
  EXPECT_EQ(backend::parse_backend("hostram"), BackendKind::HostRam);
  EXPECT_EQ(backend::parse_backend("frobnicate"), std::nullopt);
  EXPECT_EQ(backend::parse_backend(""), std::nullopt);
  for (const auto kind : {BackendKind::Sim, BackendKind::HostRam})
    EXPECT_EQ(backend::parse_backend(backend::to_string(kind)), kind);
}

TEST(BackendKindTest, ParseSizeBytes) {
  EXPECT_EQ(backend::parse_size_bytes("4096"), 4096u);
  EXPECT_EQ(backend::parse_size_bytes("64K"), 64u << 10);
  EXPECT_EQ(backend::parse_size_bytes("256M"), 256ull << 20);
  EXPECT_EQ(backend::parse_size_bytes("1G"), 1ull << 30);
  EXPECT_EQ(backend::parse_size_bytes("1GiB"), 1ull << 30);
  EXPECT_EQ(backend::parse_size_bytes("2Mb"), 2ull << 20);
  EXPECT_EQ(backend::parse_size_bytes(""), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("M"), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("12Q"), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("1.5G"), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("99999999999999999999"), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("99999999999G"), std::nullopt);
}

// --- memtest geometry / sharding --------------------------------------

TEST(MemtestGeometryTest, RoundsDownToPowerOfTwoWords) {
  // 1 MiB = 2^17 64-bit words.
  const auto g = backend::memtest_geometry(1ull << 20);
  EXPECT_EQ(g.word_bits, 64);
  EXPECT_EQ(g.num_ports, 1);
  EXPECT_EQ(g.address_bits, 17);
  // Non-power-of-two sizes round down.
  EXPECT_EQ(backend::memtest_geometry((1ull << 20) + 12345).address_bits, 17);
  // The floor: even tiny requests get the minimum geometry.
  EXPECT_EQ(backend::memtest_geometry(1).address_bits, 6);
}

TEST(MemtestGeometryTest, ShardCountIsAPureFunctionOfSize) {
  // Sharding depends on the geometry only — never on --jobs — so the
  // per-shard MISR fold (and hence the signature) is jobs-invariant.
  const auto small = backend::memtest_geometry(4096);  // 512 words
  EXPECT_EQ(backend::memtest_shards(small), 1);
  const auto big = backend::memtest_geometry(256ull << 20);
  const int shards = backend::memtest_shards(big);
  EXPECT_EQ(shards, 64);  // capped
  // Every shard holds at least 4096 words.
  EXPECT_GE(big.num_words() / static_cast<std::size_t>(shards), 4096u);
  // Power-of-two shard counts divide the power-of-two word count exactly.
  EXPECT_EQ(big.num_words() % static_cast<std::size_t>(shards), 0u);
}

// --- HostRamBackend ---------------------------------------------------

TEST(HostRamBackendTest, ReadWriteRoundTripWithMasking) {
  const memsim::MemoryGeometry g{.address_bits = 10, .word_bits = 16,
                                 .num_ports = 1};
  backend::HostRamBackend ram{g};

  ram.write(0, 5, 0xFFFF'FFFF'FFFF'FFFFull);
  EXPECT_EQ(ram.read(0, 5), 0xFFFFu);  // stored masked to word_bits
  ram.write(0, 5, 0x1234u);
  EXPECT_EQ(ram.read(0, 5), 0x1234u);
  ram.fence();

  const auto words = ram.mapped_words();
  ASSERT_EQ(words.size(), g.num_words());
  EXPECT_EQ(words[5], 0x1234u);

  ram.advance_time_ns(100);
}

TEST(HostRamBackendTest, StartsZeroFilled) {
  const memsim::MemoryGeometry g{.address_bits = 12, .word_bits = 64,
                                 .num_ports = 1};
  backend::HostRamBackend ram{g};
  for (const auto word : ram.mapped_words()) EXPECT_EQ(word, 0u);
}

TEST(HostRamBackendTest, RejectsMultiPortGeometries) {
  const memsim::MemoryGeometry g{.address_bits = 8, .word_bits = 1,
                                 .num_ports = 2};
  EXPECT_THROW((backend::HostRamBackend{g}), backend::BackendError);
}

TEST(HostRamBackendTest, HugePageRequestDegradesGracefully) {
  // The request must succeed whether or not the host grants huge pages;
  // huge_pages()/page_bytes() report what actually happened.
  const memsim::MemoryGeometry g{.address_bits = 16, .word_bits = 64,
                                 .num_ports = 1};
  backend::HostRamBackend ram{g, {.request_huge_pages = true}};
  EXPECT_GT(ram.page_bytes(), 0u);
  ram.write(0, 0, 1);
  EXPECT_EQ(ram.read(0, 0), 1u);
}

/// Deterministic report minus the header line, which names the backend.
std::string report_body(const backend::MemtestReport& report) {
  const auto text = backend::format_memtest_report(report);
  return text.substr(text.find('\n') + 1);
}

TEST(HostRamBackendTest, LargeMappingWithoutRequestIsNotHugetlb) {
  // 4 MiB gets transparent huge pages by default; that is not a
  // MAP_HUGETLB mapping, and it changes neither contents nor reports.
  const memsim::MemoryGeometry g{.address_bits = 19, .word_bits = 64,
                                 .num_ports = 1};
  {
    backend::HostRamBackend ram{g};
    EXPECT_FALSE(ram.huge_pages());
    EXPECT_EQ(ram.page_bytes(),
              static_cast<std::size_t>(sysconf(_SC_PAGESIZE)));
    for (const auto word : ram.mapped_words()) ASSERT_EQ(word, 0u);
  }
  backend::MemtestOptions opts;
  opts.size_bytes = g.num_words() * sizeof(backend::Word);
  opts.backgrounds = 2;
  const auto ram = backend::run_memtest(march::march_c(), opts);
  EXPECT_FALSE(ram.huge_pages);
  opts.huge_pages = true;
  const auto requested = backend::run_memtest(march::march_c(), opts);
  opts.backend = BackendKind::Sim;
  const auto sim = backend::run_memtest(march::march_c(), opts);
  EXPECT_EQ(backend::format_memtest_report(ram),
            backend::format_memtest_report(requested));
  EXPECT_EQ(report_body(ram), report_body(sim));
  EXPECT_TRUE(ram.passed());
}

// --- the sim backend's memory -----------------------------------------

TEST(SimBackendTest, OwningConstructorFillsTheModel) {
  // Memtest's sim backend is a zero-filled SramModel, matching the
  // kernel's zero-filled anonymous mapping.
  const memsim::MemoryGeometry g{.address_bits = 6, .word_bits = 64,
                                 .num_ports = 1};
  memsim::SramModel sim{g, 0, true};
  for (memsim::Address a = 0; a < g.num_words(); ++a)
    EXPECT_EQ(sim.read(0, a), 0u);
}

// --- session parity ---------------------------------------------------

TEST(SessionParityTest, HostRamSessionMatchesSimOnFaultFreeMemory) {
  // A full march starts by writing every cell, so the undefined power-up
  // contents never reach a comparator: hostram (zero-filled) and the
  // simulator (seeded random fill) must agree on everything.
  const memsim::MemoryGeometry g{.address_bits = 8, .word_bits = 1,
                                 .num_ports = 1};
  const auto alg = march::march_c();

  memsim::SramModel sim{g, 42};
  mbist_hardwired::HardwiredController c1{
      alg, mbist_hardwired::HardwiredConfig{.geometry = g}};
  const auto on_sim = bist::run_session(c1, sim);

  backend::HostRamBackend ram{g};
  mbist_hardwired::HardwiredController c2{
      alg, mbist_hardwired::HardwiredConfig{.geometry = g}};
  const auto on_ram = bist::run_session(c2, ram);

  EXPECT_EQ(on_sim, on_ram);
  EXPECT_TRUE(on_ram.passed());
}

// --- memtest: cross-backend equivalence -------------------------------

backend::MemtestReport run_small(const march::MarchAlgorithm& alg,
                                 BackendKind kind, int jobs = 1,
                                 bool inject = false) {
  backend::MemtestOptions opts;
  opts.size_bytes = 256u << 10;  // 32K words: fast but multi-shard
  opts.backgrounds = 2;          // zeros + one alternating pattern
  opts.jobs = jobs;
  opts.backend = kind;
  opts.inject_error = inject;
  return backend::run_memtest(alg, opts);
}

TEST(MemtestEquivalenceTest, EveryLibraryAlgorithmAgreesAcrossBackends) {
  for (const auto& alg : march::all_algorithms()) {
    SCOPED_TRACE(alg.name());
    const auto sim = run_small(alg, BackendKind::Sim);
    const auto ram = run_small(alg, BackendKind::HostRam);
    EXPECT_EQ(sim.signature, ram.signature);
    EXPECT_EQ(sim.reads, ram.reads);
    EXPECT_EQ(sim.writes, ram.writes);
    EXPECT_EQ(sim.pauses, ram.pauses);
    EXPECT_EQ(sim.mismatches, 0u);
    EXPECT_EQ(ram.mismatches, 0u);
    EXPECT_TRUE(sim.passed());
    EXPECT_TRUE(ram.passed());
    // The deterministic reports differ only in the backend name line.
    EXPECT_EQ(sim.backend_name, "sim");
    EXPECT_EQ(ram.backend_name, "hostram");
  }
}

/// A generated algorithm: random element counts, op sequences and address
/// orders, constrained only by the structural rule (the first op of the
/// first element is a write).
march::MarchAlgorithm random_algorithm(std::mt19937_64& rng,
                                       std::string name) {
  auto coin = [&](int denom) { return static_cast<int>(rng() % denom); };
  std::vector<march::MarchElement> elements;
  const int num_elements = 1 + coin(5);
  for (int e = 0; e < num_elements; ++e) {
    march::MarchElement element;
    element.order = static_cast<march::AddressOrder>(coin(3));
    const int num_ops = 1 + coin(4);
    for (int o = 0; o < num_ops; ++o) {
      march::MarchOp op;
      const bool must_write = e == 0 && o == 0;
      op.kind = must_write || coin(2) == 0 ? march::MarchOp::Kind::Write
                                           : march::MarchOp::Kind::Read;
      op.data = coin(2) == 1;
      element.ops.push_back(op);
    }
    elements.push_back(std::move(element));
  }
  return march::MarchAlgorithm{std::move(name), std::move(elements)};
}

TEST(MemtestEquivalenceTest, FuzzedAlgorithmsAgreeAcrossBackends) {
  // A seeded corpus of generated algorithms.
  std::mt19937_64 rng{0xB157'CAFEu};
  for (int iteration = 0; iteration < 24; ++iteration) {
    const auto alg =
        random_algorithm(rng, "fuzz" + std::to_string(iteration));
    ASSERT_TRUE(alg.validate().empty()) << alg.to_string();
    SCOPED_TRACE(alg.to_string());

    const auto sim = run_small(alg, BackendKind::Sim);
    const auto ram = run_small(alg, BackendKind::HostRam);
    EXPECT_EQ(sim.signature, ram.signature);
    EXPECT_EQ(sim.reads, ram.reads);
    EXPECT_EQ(sim.writes, ram.writes);
    // A generated algorithm may read a value its own elements never wrote
    // at that point (e.g. r1 right after w0) — that is a legitimate FAIL,
    // but it must be the SAME fail on both backends.
    EXPECT_EQ(sim.mismatches, ram.mismatches);
    EXPECT_EQ(sim.passed(), ram.passed());
  }
}

// --- memtest: block kernel vs behavioral reference --------------------

/// Runs `alg` on the simulator (the serial reference: one MISR clock per
/// read) and through hostram's direct-map block kernel, and expects the
/// same report body and the same failure log, op indices included.
/// Returns the reference report.
backend::MemtestReport expect_kernel_matches_sim(const march::MarchAlgorithm& alg,
                               backend::MemtestOptions opts,
                               std::initializer_list<int> jobs = {1}) {
  opts.backend = BackendKind::Sim;
  opts.jobs = 1;
  const auto sim = backend::run_memtest(alg, opts);
  opts.backend = BackendKind::HostRam;
  for (const int j : jobs) {
    opts.jobs = j;
    const auto ram = backend::run_memtest(alg, opts);
    EXPECT_EQ(report_body(ram), report_body(sim)) << "jobs=" << j;
    EXPECT_EQ(ram.failures, sim.failures) << "jobs=" << j;
    EXPECT_EQ(ram.mismatches, sim.mismatches) << "jobs=" << j;
  }
  return sim;
}

TEST(MemtestKernelTest, LibraryAlgorithmsMatchSimOnEveryBackground) {
  // 512 B and 1 KiB leave the single shard shorter than one signature
  // block (the tail path); 4 KiB is two full blocks; 64 KiB is two shards.
  for (const auto& alg : march::all_algorithms()) {
    SCOPED_TRACE(alg.name());
    for (const std::uint64_t size : {512u, 1024u, 4096u, 64u << 10}) {
      SCOPED_TRACE(size);
      backend::MemtestOptions opts;
      opts.size_bytes = size;
      opts.backgrounds = 0;  // all 7 standard backgrounds
      EXPECT_TRUE(expect_kernel_matches_sim(alg, opts).passed());
      const bool read_led = std::any_of(
          alg.elements().begin(), alg.elements().end(), [](const auto& el) {
            return !el.is_pause && !el.ops.empty() && el.ops.front().is_read();
          });
      if (!read_led) continue;  // injection needs a read-led element
      opts.inject_error = true;
      EXPECT_FALSE(expect_kernel_matches_sim(alg, opts).passed());
    }
  }
}

TEST(MemtestKernelTest, MismatchingAlgorithmsMatchSimAcrossJobsAndCaps) {
  // Reads of values never written mismatch at every address: every block
  // takes the serial rescan, and the failure cap truncates the log.
  std::vector<march::MarchAlgorithm> corpus{
      march::parse("up(w0); up(r1)", "every-read-fails"),
      march::parse("up(w0); down(r1,w1,r0); up(r1)", "mixed"),
      march::parse("any(w1); up(r1,w0,r1,r0)", "one-of-two"),
  };
  std::mt19937_64 rng{0x6B1D'F00Du};
  for (int iteration = 0; iteration < 12; ++iteration) {
    corpus.push_back(
        random_algorithm(rng, "fuzz" + std::to_string(iteration)));
  }
  for (const auto& alg : corpus) {
    SCOPED_TRACE(alg.to_string());
    for (const std::size_t cap : {std::size_t{0}, std::size_t{5},
                                  std::size_t{64}, std::size_t{1} << 20}) {
      SCOPED_TRACE(cap);
      for (const std::uint64_t size : {512u, 64u << 10}) {
        backend::MemtestOptions opts;
        opts.size_bytes = size;
        opts.backgrounds = 3;
        opts.max_failures = cap;
        const auto sim = expect_kernel_matches_sim(alg, opts, {1, 2, 4});
        if (alg.name() == "every-read-fails") {
          EXPECT_EQ(sim.mismatches, sim.reads);
        }
      }
    }
  }
}

// --- memtest: SMi shape walks vs the generic walk ---------------------

std::vector<backend::KernelOp> kernel_ops(
    const std::vector<march::MarchOp>& ops, backend::Word bg) {
  std::vector<backend::KernelOp> out;
  for (const march::MarchOp& op : ops) {
    out.push_back({march::apply_background(op.data, bg, ~backend::Word{0}),
                   op.is_read()});
  }
  return out;
}

TEST(MemtestWalkTest, EveryCannedComponentHasItsShapeWalk) {
  for (const auto& comp : mbist_pfsm::component_set()) {
    for (const bool d : {false, true}) {
      EXPECT_EQ(backend::walk_shape(
                    kernel_ops(mbist_pfsm::realize(comp.id, d), 0)),
                comp.id);
    }
  }
  // March B's 6-op element and a double write are no component.
  const auto march_b = march::by_name("March B");
  const auto six = std::find_if(
      march_b.elements().begin(), march_b.elements().end(),
      [](const auto& el) { return el.ops.size() == 6; });
  ASSERT_NE(six, march_b.elements().end());
  EXPECT_EQ(backend::walk_shape(kernel_ops(six->ops, 0)), -1);
  EXPECT_EQ(backend::walk_shape(kernel_ops(
                march::parse("any(w0,w1)", "ww").elements()[0].ops, 0)),
            -1);
}

/// Index of the first word of `cells` that starts a 64-byte line.
std::size_t first_line_word(std::span<const backend::Word> cells) {
  const auto addr = reinterpret_cast<std::uintptr_t>(cells.data());
  return (64 - addr % 64) % 64 / sizeof(backend::Word);
}

/// Runs every SMi walk of `tier` against the generic walk, both
/// directions, every block length 1..256, each block starting at a random
/// word of a 64-byte line: on cell contents that match the leading reads,
/// that hold one to four bad cells, or that are random; with op values
/// that follow d/~d under a background and with arbitrary ones (post-write
/// reads that mismatch).  The 12 trials per length cross every contents
/// kind (trial % 3) with both kinds of op values (trial % 4 == 3).  Hits
/// and the final memory, guard words included, must be identical.
void expect_shape_walks_match_generic(backend::WalkTier tier) {
  constexpr std::size_t kGuard = 8;
  constexpr std::size_t kLineWords = 64 / sizeof(backend::Word);
  constexpr int kTrials = 12;
  std::mt19937_64 rng{0x5A11'0ABCu};
  const auto backgrounds = march::standard_backgrounds(64);
  std::vector<backend::Word> generic_cells;
  std::vector<backend::Word> shaped_cells;
  int walks = 0;
  for (int shape = 0; shape < backend::kNumWalkShapes; ++shape) {
    const auto& comp = mbist_pfsm::component_set()[static_cast<std::size_t>(shape)];
    for (const bool descending : {false, true}) {
      const backend::BlockWalk shaped = backend::block_walk(shape, descending, tier);
      for (std::size_t count = 1; count <= 256; ++count) {
        for (int trial = 0; trial < kTrials; ++trial) {
          const backend::Word bg = backgrounds[rng() % backgrounds.size()];
          auto ops = kernel_ops(mbist_pfsm::realize(shape, rng() & 1), bg);
          if (trial % 4 == 3) {
            for (auto& op : ops) op.value = rng() % 3 == 0 ? rng() : op.value;
          }
          ASSERT_EQ(backend::walk_shape(ops), comp.id);
          const backend::Word lead =
              ops.front().read ? ops.front().value : rng();
          shaped_cells.assign(count + 2 * kGuard + 2 * kLineWords, 0);
          // The shape walk's lowest cell sits `offset` words into a line.
          const std::size_t offset = rng() % kLineWords;
          const std::size_t lowest =
              first_line_word(shaped_cells) + kGuard + offset;
          for (auto& cell : shaped_cells) cell = trial % 3 == 2 ? rng() : lead;
          if (trial % 3 == 1) {
            for (int bad = 0; bad < 1 + trial % 4; ++bad) {
              shaped_cells[lowest + rng() % count] ^= backend::Word{1}
                                                      << (rng() % 64);
            }
          }
          generic_cells = shaped_cells;
          const std::size_t reads = static_cast<std::size_t>(std::count_if(
              ops.begin(), ops.end(), [](const auto& op) { return op.read; }));
          std::vector<bist::MisrDeviation> generic_hits(reads * count + 1);
          std::vector<bist::MisrDeviation> shaped_hits(reads * count + 1);
          const std::size_t start = descending ? lowest + count - 1 : lowest;
          const std::size_t generic_n = backend::block_walk(-1, descending)(
              &generic_cells[start], count, ops, generic_hits.data());
          const std::size_t shaped_n =
              shaped(&shaped_cells[start], count, ops, shaped_hits.data());
          backend::stream_fence();
          const bool same =
              shaped_n == generic_n && shaped_cells == generic_cells &&
              std::equal(shaped_hits.begin(),
                         shaped_hits.begin() + static_cast<std::ptrdiff_t>(generic_n),
                         generic_hits.begin(), [](const auto& a, const auto& b) {
                           return a.index == b.index && a.actual == b.actual;
                         });
          ASSERT_TRUE(same) << "SM" << shape << (descending ? " down" : " up")
                            << " count " << count << " offset " << offset
                            << " trial " << trial << ": " << shaped_n
                            << " hits, generic " << generic_n;
          ++walks;
        }
      }
    }
  }
  EXPECT_EQ(walks, 8 * 2 * 256 * kTrials);
}

TEST(MemtestWalkTest, ShapeWalksMatchTheGenericWalk) {
  // The walks block_walk hands the kernel are the best supported tier's;
  // Tiers/MemtestWalkTierTest runs each tier against the generic walk.
  const backend::WalkTier best = backend::best_walk_tier();
  EXPECT_TRUE(backend::walk_tier_supported(best));
  for (const backend::WalkTier tier : backend::kWalkTiers) {
    if (backend::walk_tier_supported(tier)) {
      EXPECT_GE(static_cast<int>(best), static_cast<int>(tier));
    }
  }
  for (int shape = -1; shape < backend::kNumWalkShapes; ++shape) {
    for (const bool descending : {false, true}) {
      EXPECT_EQ(backend::block_walk(shape, descending),
                backend::block_walk(shape, descending, best));
    }
  }
}

class MemtestWalkTierTest : public ::testing::TestWithParam<backend::WalkTier> {};

TEST_P(MemtestWalkTierTest, ShapeWalksMatchTheGenericWalk) {
  const backend::WalkTier tier = GetParam();
  if (!backend::walk_tier_supported(tier)) {
    EXPECT_THROW((void)backend::block_walk(0, false, tier), std::invalid_argument);
    GTEST_SKIP() << "this CPU lacks the " << backend::to_string(tier)
                 << " walk tier";
  }
  expect_shape_walks_match_generic(tier);
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, MemtestWalkTierTest, ::testing::ValuesIn(backend::kWalkTiers),
    [](const ::testing::TestParamInfo<backend::WalkTier>& info) {
      return std::string{backend::to_string(info.param)};
    });

TEST(MemtestKernelTest, ShapeWalksMatchSimWithMismatchesInjectionAndCaps) {
  // Every SMi as an element after a w0 sweep, in both orders, under all
  // seven backgrounds (three on the multi-shard size): with d = 0 its
  // leading reads match, with d = 1 they mismatch everywhere.  SM2/SM7 shapes whose post-write read
  // expects the other value mismatch everywhere too.  512 B and 1 KiB end
  // the single shard inside one 256-word block; 64 KiB is 16 shards.
  std::vector<march::MarchAlgorithm> corpus{
      march::parse("any(w0); up(r0,w1,r0)", "sm7-post-write-mismatch"),
      march::parse("any(w1); down(r1,w0,r1,w1)", "sm2-post-write-mismatch"),
  };
  for (const auto& comp : mbist_pfsm::component_set()) {
    for (const auto order : {march::AddressOrder::Up, march::AddressOrder::Down}) {
      for (const bool d : {false, true}) {
        march::MarchElement init;
        init.order = march::AddressOrder::Any;
        init.ops = {march::MarchOp{march::MarchOp::Kind::Write, false}};
        march::MarchElement element;
        element.order = order;
        element.ops = mbist_pfsm::realize(comp.id, d);
        // A trailing read-led element observes what the shape wrote.
        march::MarchElement check;
        check.order = march::AddressOrder::Up;
        check.ops = {march::MarchOp{march::MarchOp::Kind::Read, true}};
        corpus.emplace_back(
            "SM" + std::to_string(comp.id),
            std::vector<march::MarchElement>{init, element, check});
      }
    }
  }
  for (const auto& alg : corpus) {
    SCOPED_TRACE(alg.to_string());
    ASSERT_TRUE(alg.validate().empty());
    for (const std::uint64_t size : {512u, 1024u, 64u << 10}) {
      SCOPED_TRACE(size);
      for (const std::size_t cap : {std::size_t{3}, std::size_t{1} << 20}) {
        backend::MemtestOptions opts;
        opts.size_bytes = size;
        opts.backgrounds = size > 1024 ? 3 : 0;
        opts.max_failures = cap;
        expect_kernel_matches_sim(alg, opts, {1, 4});
        opts.inject_error = true;
        const auto injected = expect_kernel_matches_sim(alg, opts, {1, 4});
        EXPECT_TRUE(injected.injected);
        EXPECT_GT(injected.mismatches, 0u);
      }
    }
  }
}

TEST(MemtestKernelTest, CleanRunsAroundADirtyBlockMatchSim) {
  // Shards of 8, 16 and 32 full blocks (16 KiB: 1 shard; 64 KiB: 2; 1 MiB:
  // 16).  Injection at words_per_shard / 2 dirties the middle block of
  // shard 0, so its first read-led element folds a clean run, the dirty
  // block read by read, then another clean run (lengths 4 and 3 on the
  // smallest size, both orders), while every other shard folds one run.
  for (const std::uint64_t size : {16u << 10, 64u << 10, 1u << 20}) {
    SCOPED_TRACE(size);
    const auto geometry = backend::memtest_geometry(size);
    const std::size_t words_per_shard =
        geometry.num_words() /
        static_cast<std::size_t>(backend::memtest_shards(geometry));
    ASSERT_GE(words_per_shard / 256, 8u);
    for (const auto& alg : march::all_algorithms()) {
      if (size > (64u << 10) && alg.name() != "March C") continue;
      const bool read_led = std::any_of(
          alg.elements().begin(), alg.elements().end(), [](const auto& el) {
            return !el.is_pause && !el.ops.empty() && el.ops.front().is_read();
          });
      if (!read_led) continue;
      SCOPED_TRACE(alg.name());
      backend::MemtestOptions opts;
      opts.size_bytes = size;
      opts.backgrounds = 3;
      EXPECT_TRUE(expect_kernel_matches_sim(alg, opts, {1, 4}).passed());
      opts.inject_error = true;
      const auto injected = expect_kernel_matches_sim(alg, opts, {1, 4});
      EXPECT_FALSE(injected.passed());
      ASSERT_FALSE(injected.failures.empty());
      EXPECT_EQ(injected.failures.front().op.addr, words_per_shard / 2);
    }
  }
}

// --- memtest: determinism, reporting, injection -----------------------

TEST(MemtestTest, ReportIsByteIdenticalAcrossJobs) {
  const auto alg = march::march_c();
  const auto reference = run_small(alg, BackendKind::HostRam, 1);
  for (const int jobs : {2, 4, 8}) {
    const auto report = run_small(alg, BackendKind::HostRam, jobs);
    EXPECT_EQ(backend::format_memtest_report(report),
              backend::format_memtest_report(reference))
        << "jobs=" << jobs;
  }
}

TEST(MemtestTest, ReportCarriesTheContractLines) {
  const auto report = run_small(march::by_name("MATS+"), BackendKind::Sim);
  const auto text = backend::format_memtest_report(report);
  EXPECT_NE(text.find("memtest \"MATS+\" on sim"), std::string::npos);
  EXPECT_NE(text.find("signature: 0x"), std::string::npos);
  EXPECT_NE(text.find("PASS"), std::string::npos);
  // Throughput (timing, host noise) stays out of the deterministic report.
  EXPECT_EQ(text.find("GB/s"), std::string::npos);
  const auto timing = backend::format_memtest_throughput(report);
  EXPECT_NE(timing.find("sustained: read "), std::string::npos);
  EXPECT_NE(timing.find("wall "), std::string::npos);
  // Only hostram faults a mapping in, outside the timed phases.
  EXPECT_EQ(timing.find("prefault "), std::string::npos);
  const auto ram = run_small(march::by_name("MATS+"), BackendKind::HostRam);
  EXPECT_GT(ram.prefault_seconds, 0.0);
  const auto ram_timing = backend::format_memtest_throughput(ram);
  EXPECT_NE(ram_timing.find("prefault "), std::string::npos);
  EXPECT_NE(ram_timing.find(" GiB/s"), std::string::npos);
  EXPECT_EQ(ram_timing.find(" GB/s"), std::string::npos);
  EXPECT_EQ(backend::format_memtest_report(ram).find("prefault"),
            std::string::npos);
}

TEST(MemtestTest, PhasesCoverEveryMarchElement) {
  const auto alg = march::march_c();
  const auto report = run_small(alg, BackendKind::HostRam);
  ASSERT_EQ(report.phases.size(), alg.elements().size());
  std::uint64_t reads = 0, writes = 0;
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    EXPECT_EQ(report.phases[i].element, alg.elements()[i].to_string());
    reads += report.phases[i].reads;
    writes += report.phases[i].writes;
  }
  EXPECT_EQ(reads, report.reads);
  EXPECT_EQ(writes, report.writes);
}

TEST(MemtestTest, InjectedErrorFailsOnBothBackends) {
  const auto alg = march::march_c();
  for (const auto kind : {BackendKind::Sim, BackendKind::HostRam}) {
    SCOPED_TRACE(backend::to_string(kind));
    const auto clean = run_small(alg, kind);
    const auto injected = run_small(alg, kind, 1, true);
    EXPECT_TRUE(clean.passed());
    EXPECT_FALSE(injected.passed());
    EXPECT_EQ(injected.mismatches, 1u);
    ASSERT_EQ(injected.failures.size(), 1u);
    EXPECT_NE(injected.signature, clean.signature);
  }
}

TEST(MemtestTest, InjectionNeedsAReadLedElement) {
  // An algorithm that never leads an element with a read has no point at
  // which a flipped bit is guaranteed to be observed.
  const auto alg = march::parse("up(w0); up(w1)", "writes-only");
  backend::MemtestOptions opts;
  opts.size_bytes = 64u << 10;
  opts.backgrounds = 1;
  opts.inject_error = true;
  EXPECT_THROW((void)backend::run_memtest(alg, opts), backend::BackendError);
}

TEST(MemtestTest, RejectsInvalidRequests) {
  backend::MemtestOptions opts;
  opts.size_bytes = 64u << 10;
  opts.passes = 0;
  EXPECT_THROW((void)backend::run_memtest(march::march_c(), opts),
               backend::BackendError);
  opts.passes = 1;
  opts.misr_width = 0;
  EXPECT_THROW((void)backend::run_memtest(march::march_c(), opts),
               backend::BackendError);
  // Structurally invalid algorithm (first op reads undefined power-up).
  opts.misr_width = 32;
  EXPECT_THROW(
      (void)backend::run_memtest(march::parse("up(r0,w0)", "bad"), opts),
      backend::BackendError);
}

TEST(MemtestTest, PauseElementsAccountTimeNotOps) {
  const auto alg = march::parse("any(w0); pause(500ns); any(r0)", "retention");
  backend::MemtestOptions opts;
  opts.size_bytes = 64u << 10;
  opts.backgrounds = 1;
  const auto report = backend::run_memtest(alg, opts);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.pauses, 1u);
  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_TRUE(report.phases[1].is_pause);
  EXPECT_EQ(report.phases[1].reads + report.phases[1].writes, 0u);
}

// --- soc / field over the backend seam --------------------------------

/// A small fault-free chip both backends must agree on.
soc::SocDescription clean_chip() {
  soc::SocDescription chip{"clean"};
  soc::MemoryInstance a;
  a.name = "sram0";
  a.geometry = {.address_bits = 6, .word_bits = 8, .num_ports = 1};
  chip.add(a);
  soc::MemoryInstance b;
  b.name = "sram1";
  b.geometry = {.address_bits = 7, .word_bits = 4, .num_ports = 1};
  chip.add(b);
  return chip;
}

soc::TestPlan clean_plan() {
  soc::TestPlan plan;
  soc::TestAssignment a;
  a.memory = "sram0";
  a.algorithm = "March C";
  a.controller = soc::ControllerKind::Ucode;
  plan.assign(a);
  soc::TestAssignment b;
  b.memory = "sram1";
  b.algorithm = "MATS+";
  b.controller = soc::ControllerKind::Hardwired;
  plan.assign(b);
  return plan;
}

TEST(SocBackendTest, FaultFreeChipAgreesAcrossBackends) {
  const auto chip = clean_chip();
  const auto plan = clean_plan();
  const auto sim = soc::run_soc(chip, plan, {.jobs = 1});
  const auto ram = soc::run_soc(chip, plan,
                                {.jobs = 1, .backend = BackendKind::HostRam});
  EXPECT_EQ(sim, ram);
  EXPECT_TRUE(ram.all_healthy());
  EXPECT_EQ(soc::format_soc_report(chip, plan, sim),
            soc::format_soc_report(chip, plan, ram));
}

TEST(SocBackendTest, HostRamRejectsFaultInjection) {
  // The demo chip injects manufacturing defects; real host memory cannot.
  EXPECT_THROW((void)soc::run_soc(soc::demo_soc(), soc::demo_plan(),
                                  {.jobs = 1,
                                   .backend = BackendKind::HostRam}),
               soc::SocError);
}

TEST(FieldBackendTest, FaultFreeChipAgreesAcrossBackends) {
  const auto chip = clean_chip();
  const auto plan = clean_plan();
  const auto profile = field::parse_profile_text(
      "profile clean\n"
      "horizon 40000\n"
      "bus_budget 2\n"
      "window sram0 start=0 end=9000\n"
      "window sram0 start=10000 end=19000\n"
      "window sram1 start=0 end=16000\n");
  const auto sim = field::run_field(chip, plan, profile, {.jobs = 1});
  const auto ram = field::run_field(
      chip, plan, profile, {.jobs = 1, .backend = BackendKind::HostRam});
  EXPECT_EQ(sim, ram);
  EXPECT_EQ(field::format_field_report(sim), field::format_field_report(ram));
}

TEST(FieldBackendTest, HostRamRejectsFaultInjection) {
  EXPECT_THROW((void)field::run_field(soc::demo_soc(), soc::demo_plan(),
                                      field::demo_profile(),
                                      {.jobs = 1,
                                       .backend = BackendKind::HostRam}),
               soc::SocError);
}

// --- calibrated power model -------------------------------------------

TEST(PowerCalibrationTest, AnchorsAtTheReferenceGeometry) {
  // The calibration is normalized so the reference bit-oriented 1K
  // geometry keeps its heuristic weight — heuristic and calibrated models
  // agree exactly there, and diverge smoothly elsewhere.
  const memsim::MemoryGeometry reference{};
  EXPECT_DOUBLE_EQ(soc::PowerModel::calibrated_weight(reference),
                   soc::PowerModel::default_weight(reference));
  EXPECT_DOUBLE_EQ(soc::PowerModel::default_weight(reference), 11.0);
}

TEST(PowerCalibrationTest, WeightGrowsWithTheDatapath) {
  const memsim::MemoryGeometry small{.address_bits = 8, .word_bits = 1,
                                     .num_ports = 1};
  const memsim::MemoryGeometry wide{.address_bits = 8, .word_bits = 64,
                                    .num_ports = 1};
  const memsim::MemoryGeometry deep{.address_bits = 16, .word_bits = 1,
                                    .num_ports = 1};
  EXPECT_GT(soc::PowerModel::calibrated_weight(wide),
            soc::PowerModel::calibrated_weight(small));
  EXPECT_GT(soc::PowerModel::calibrated_weight(deep),
            soc::PowerModel::calibrated_weight(small));
}

TEST(PowerCalibrationTest, ModelSelectsTheWeightFunction) {
  soc::PowerModel model;
  const memsim::MemoryGeometry g{.address_bits = 12, .word_bits = 32,
                                 .num_ports = 1};
  EXPECT_DOUBLE_EQ(model.weight(g), soc::PowerModel::default_weight(g));
  model.calibrated = true;
  EXPECT_DOUBLE_EQ(model.weight(g), soc::PowerModel::calibrated_weight(g));
  // An explicit per-assignment override still wins over either model.
  soc::TestPlan plan;
  soc::TestAssignment a;
  a.memory = "m";
  a.algorithm = "March C";
  a.power_weight = 3.5;
  plan.assign(a);
  plan.set_power_calibrated(true);
  soc::MemoryInstance m;
  m.name = "m";
  m.geometry = g;
  EXPECT_DOUBLE_EQ(plan.effective_weight(plan.assignments()[0], m), 3.5);
}

TEST(PowerCalibrationTest, OldVsNewScheduleFeasibilityIsPinned) {
  // The carried-over ROADMAP item: switching the demo plan from the
  // heuristic to the calibrated model must (a) keep the chip testable once
  // the budget accommodates the recalibrated weights and (b) never change
  // any verdict — power shapes the schedule, not the results.
  const auto chip = soc::demo_soc();
  auto heuristic = soc::demo_plan();
  const auto before = soc::run_soc(chip, heuristic, {.jobs = 1});
  EXPECT_TRUE(before.all_healthy());

  auto calibrated = soc::demo_plan();
  calibrated.set_power_calibrated(true);
  // Scale the budget by the worst per-instance weight ratio so every
  // single session still fits (validate() would reject an impossible one).
  double ratio = 1.0;
  for (const auto& m : chip.memories()) {
    const double h = soc::PowerModel::default_weight(m.geometry);
    const double c = soc::PowerModel::calibrated_weight(m.geometry);
    ratio = std::max(ratio, c / h);
  }
  calibrated.set_power_budget(heuristic.power().budget * ratio);
  EXPECT_NO_THROW(calibrated.validate(chip));
  const auto after = soc::run_soc(chip, calibrated, {.jobs = 1});
  EXPECT_TRUE(after.all_healthy());

  // Same verdicts and repairs, instance by instance — only the schedule's
  // start cycles may move.
  ASSERT_EQ(before.instances.size(), after.instances.size());
  for (std::size_t i = 0; i < before.instances.size(); ++i) {
    EXPECT_EQ(before.instances[i].session, after.instances[i].session);
    EXPECT_EQ(before.instances[i].repair, after.instances[i].repair);
    EXPECT_EQ(before.instances[i].healthy(), after.instances[i].healthy());
  }
}

TEST(PowerCalibrationTest, ChipFileRoundTripsThePowerModelDirective) {
  auto chip = soc::parse_chip_text(
      "soc t\n"
      "power_budget 64\n"
      "power_model calibrated\n"
      "mem a addr_bits=6 word_bits=8\n"
      "assign a \"March C\" ucode\n");
  EXPECT_TRUE(chip.plan.power().calibrated);
  const auto printed = soc::to_chip_text(chip.description, chip.plan);
  EXPECT_NE(printed.find("power_model calibrated"), std::string::npos);
  const auto again = soc::parse_chip_text(printed);
  EXPECT_EQ(again.plan, chip.plan);
  // heuristic (the default) serializes to no directive at all.
  chip.plan.set_power_calibrated(false);
  EXPECT_EQ(soc::to_chip_text(chip.description, chip.plan)
                .find("power_model"),
            std::string::npos);
  EXPECT_THROW(
      (void)soc::parse_chip_text("soc t\npower_model frobnicate\n"
                                 "mem a addr_bits=6\nassign a \"MATS\" ucode\n"),
      soc::SocError);
}

}  // namespace

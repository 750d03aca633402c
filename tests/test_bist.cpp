// Shared-datapath tests: behavioral address/data/port generators, the
// session runner, and the datapath area models.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "bist/datapath.h"
#include "bist/misr.h"
#include "bist/session.h"
#include "march/library.h"
#include "mbist_hardwired/controller.h"
#include "mbist_ucode/controller.h"

namespace {

using namespace pmbist;
using bist::AddressGenerator;
using bist::DataGenerator;
using bist::PortSequencer;
using march::AddressOrder;

TEST(AddressGenerator, UpTraversal) {
  AddressGenerator gen{3};
  gen.init(AddressOrder::Up);
  EXPECT_EQ(gen.current(), 0u);
  EXPECT_FALSE(gen.descending());
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(gen.at_last());
    gen.step();
  }
  EXPECT_EQ(gen.current(), 7u);
  EXPECT_TRUE(gen.at_last());
}

TEST(AddressGenerator, DownTraversal) {
  AddressGenerator gen{3};
  gen.init(AddressOrder::Down);
  EXPECT_EQ(gen.current(), 7u);
  EXPECT_TRUE(gen.descending());
  for (int i = 0; i < 7; ++i) gen.step();
  EXPECT_EQ(gen.current(), 0u);
  EXPECT_TRUE(gen.at_last());
}

TEST(AddressGenerator, AnyMapsToUp) {
  AddressGenerator gen{2};
  gen.init(AddressOrder::Any);
  EXPECT_EQ(gen.current(), 0u);
  EXPECT_FALSE(gen.descending());
}

TEST(AddressGenerator, SingleBitMemory) {
  AddressGenerator gen{1};
  gen.init(AddressOrder::Up);
  EXPECT_FALSE(gen.at_last());
  gen.step();
  EXPECT_TRUE(gen.at_last());
}

TEST(DataGenerator, BitOrientedHasOneBackground) {
  DataGenerator gen{1};
  EXPECT_EQ(gen.background_count(), 1);
  EXPECT_TRUE(gen.at_last());
  EXPECT_EQ(gen.data_for(false), 0u);
  EXPECT_EQ(gen.data_for(true), 1u);
}

TEST(DataGenerator, WordBackgroundWalk) {
  DataGenerator gen{8};
  EXPECT_EQ(gen.background_count(), 4);
  EXPECT_EQ(gen.background(), 0x00u);
  EXPECT_EQ(gen.data_for(true), 0xFFu);
  gen.next();
  EXPECT_EQ(gen.background(), 0xAAu);
  EXPECT_EQ(gen.data_for(true), 0x55u);
  gen.next();
  gen.next();
  EXPECT_EQ(gen.background(), 0xF0u);
  EXPECT_TRUE(gen.at_last());
  gen.reset();
  EXPECT_EQ(gen.background_index(), 0);
}

TEST(PortSequencer, WalksPorts) {
  PortSequencer seq{3};
  EXPECT_EQ(seq.current(), 0);
  EXPECT_FALSE(seq.at_last());
  seq.next();
  seq.next();
  EXPECT_EQ(seq.current(), 2);
  EXPECT_TRUE(seq.at_last());
  seq.reset();
  EXPECT_EQ(seq.current(), 0);
}

TEST(PortSequencer, SinglePortCostsNothing) {
  const auto lib = netlist::TechLibrary::cmos5s();
  EXPECT_DOUBLE_EQ(PortSequencer::area(1).total_ge(lib), 0.0);
  EXPECT_GT(PortSequencer::area(2).total_ge(lib), 0.0);
}

TEST(DatapathArea, ScalesWithGeometry) {
  const auto lib = netlist::TechLibrary::cmos5s();
  const memsim::MemoryGeometry small{.address_bits = 8, .word_bits = 1,
                                     .num_ports = 1};
  const memsim::MemoryGeometry big{.address_bits = 16, .word_bits = 16,
                                   .num_ports = 4};
  EXPECT_LT(bist::datapath_inventory(small, false).total_ge(lib),
            bist::datapath_inventory(big, false).total_ge(lib));
  EXPECT_LT(bist::datapath_inventory(small, false).total_ge(lib),
            bist::datapath_inventory(small, true).total_ge(lib));
}

TEST(Session, CycleBoundReportsIncomplete) {
  const memsim::MemoryGeometry g{.address_bits = 8};
  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(march::march_c());
  memsim::SramModel mem{g, 1};
  const auto r = bist::run_session(ctrl, mem, {.max_cycles = 10});
  EXPECT_FALSE(r.completed());
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.cycles, 10u);
}

TEST(Session, FailureLogCapRespected) {
  const memsim::MemoryGeometry g{.address_bits = 4};
  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(march::march_c());
  memsim::FaultyMemory mem{g, 1};
  for (memsim::Address a = 0; a < 8; ++a)
    mem.add_fault(memsim::StuckAtFault{{a, 0}, true});
  const auto r = bist::run_session(ctrl, mem, {.max_failures = 3});
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.failures.size(), 3u);
}

TEST(Session, TruncationCapsTheLogNotTheRun) {
  // max_failures bounds the captured log only: the run continues to
  // completion, every mismatch is still counted, and passed() stays false.
  const memsim::MemoryGeometry g{.address_bits = 4};
  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(march::march_c());
  memsim::FaultyMemory mem{g, 1};
  for (memsim::Address a = 0; a < 8; ++a)
    mem.add_fault(memsim::StuckAtFault{{a, 0}, true});

  const auto full = bist::run_session(ctrl, mem, {.max_failures = 1u << 20});
  const auto capped = bist::run_session(ctrl, mem, {.max_failures = 3});
  ASSERT_GT(full.failures.size(), 3u);
  EXPECT_EQ(full.mismatches, full.failures.size());

  EXPECT_TRUE(capped.completed());
  EXPECT_EQ(capped.failures.size(), 3u);
  EXPECT_EQ(capped.mismatches, full.mismatches);  // counted past capacity
  EXPECT_EQ(capped.cycles, full.cycles);          // run not cut short
  EXPECT_EQ(capped.reads, full.reads);
  EXPECT_FALSE(capped.passed());
  // The captured prefix is the same failures in the same order.
  for (std::size_t i = 0; i < capped.failures.size(); ++i)
    EXPECT_TRUE(capped.failures[i] == full.failures[i]) << i;
}

TEST(Session, ZeroCapacityStillFailsTheSession) {
  const memsim::MemoryGeometry g{.address_bits = 4};
  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(march::march_c());
  memsim::FaultyMemory mem{g, 1};
  mem.add_fault(memsim::StuckAtFault{{2, 0}, true});
  const auto r = bist::run_session(ctrl, mem, {.max_failures = 0});
  EXPECT_TRUE(r.completed());
  EXPECT_TRUE(r.failures.empty());
  EXPECT_GT(r.mismatches, 0u);
  EXPECT_FALSE(r.passed());  // an empty log is not a clean run
}

TEST(CollectOps, ThrowsOnRunawayController) {
  // A controller that never terminates must be caught by the bound.
  class Runaway final : public bist::Controller {
   public:
    [[nodiscard]] std::string name() const override { return "runaway"; }
    void reset() override {}
    [[nodiscard]] bool done() const override { return false; }
    std::optional<march::MemOp> step() override { return std::nullopt; }
  };
  Runaway r;
  EXPECT_THROW((void)bist::collect_ops(r, 100), std::runtime_error);
  EXPECT_THROW((void)bist::count_cycles(r, 100), std::runtime_error);
}

TEST(Session, EmptyProgramIsImmediatelyDone) {
  const memsim::MemoryGeometry g{.address_bits = 4};
  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  memsim::SramModel mem{g, 1};
  const auto r = bist::run_session(ctrl, mem);
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.reads + r.writes, 0u);
}

TEST(Session, StreamSessionAndMisrLoopsAgree) {
  // The stream run, the controller session and the MISR session share one
  // op-application step; pin them against each other (and the MISR
  // signature against a serial fold of the read actuals) so they cannot
  // drift apart.
  const memsim::MemoryGeometry g{.address_bits = 4};
  const std::vector<std::optional<memsim::Fault>> faults{
      std::nullopt, memsim::StuckAtFault{{5, 0}, true},
      memsim::IdempotentCouplingFault{{3, 0}, {9, 0}, true, false}};
  const bist::SessionOptions options{.max_failures = 1u << 20};
  for (const auto& alg : march::all_algorithms()) {
    for (const auto& fault : faults) {
      SCOPED_TRACE(alg.name() + " / " +
                   (fault ? memsim::describe(*fault) : "fault-free"));
      const auto make_memory = [&] {
        auto mem = std::make_unique<memsim::FaultyMemory>(g, 7);
        if (fault) mem->add_fault(*fault);
        return mem;
      };
      const auto stream = march::expand(alg, g);
      mbist_hardwired::HardwiredController hw{alg, {.geometry = g}};

      const auto run =
          march::run_stream(stream, *make_memory(), options.max_failures);
      const auto session = bist::run_session(hw, *make_memory(), options);
      ASSERT_TRUE(session.completed());
      EXPECT_EQ(session.failures, run.failures);
      EXPECT_EQ(session.reads, run.reads);
      EXPECT_EQ(session.writes, run.writes);
      EXPECT_EQ(session.pauses, run.pauses);
      EXPECT_EQ(session.mismatches, run.mismatches);
      EXPECT_EQ(run.mismatches, run.failures.size());
      EXPECT_EQ(run.passed(), run.failures.empty());  // log is uncapped

      const auto misr =
          bist::run_session_misr(hw, *make_memory(), 16, 0, 0, options);
      EXPECT_EQ(misr.session, session);

      const auto serial_memory = make_memory();
      bist::Misr serial{16, 0};
      for (const auto& op : stream) {
        if (op.kind == march::MemOp::Kind::Write) {
          serial_memory->write(op.port, op.addr, op.data);
        } else if (op.kind == march::MemOp::Kind::Read) {
          serial.absorb(serial_memory->read(op.port, op.addr));
        } else {
          serial_memory->advance_time_ns(op.pause_ns);
        }
      }
      EXPECT_EQ(misr.signature, serial.signature());
    }
  }
}

}  // namespace

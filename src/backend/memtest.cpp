#include "backend/memtest.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <span>

#include "backend/hostram_backend.h"
#include "backend/memtest_walk.h"
#include "bist/misr.h"
#include "common/thread_pool.h"
#include "march/coverage.h"
#include "march/expand.h"

namespace pmbist::backend {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-shard march state, persistent across elements/backgrounds/passes so
/// op indices and the MISR fold the shard's whole access history.
struct ShardState {
  bist::Misr misr;
  march::RunResult run;
  std::uint64_t op_index = 0;  ///< index into the shard's own op stream

  explicit ShardState(int misr_width) : misr{misr_width, 0} {}
};

/// Addresses per signature block of the direct-map kernel.
constexpr std::size_t kBlockWords = 256;

/// One march element under one background, built once per run for the
/// direct-map walk: background-applied op values, the block fold of the
/// element's expected reads (the same p reads at every address) and the
/// SMi shape whose walk runs it (-1: the generic walk).
struct ElementKernel {
  std::vector<KernelOp> ops;
  std::vector<std::size_t> read_ops;  ///< position in `ops` of each read
  bist::PeriodicFold fold;
  int shape = -1;
};

ElementKernel make_kernel(const march::MarchElement& el, Word bg, Word mask,
                          int misr_width) {
  std::vector<KernelOp> ops;
  std::vector<std::size_t> read_ops;
  std::vector<Word> reads;
  for (const march::MarchOp& op : el.ops) {
    const Word value = march::apply_background(op.data, bg, mask);
    if (op.is_read()) {
      read_ops.push_back(ops.size());
      reads.push_back(value);
    }
    ops.push_back(KernelOp{value, op.is_read()});
  }
  const int shape = walk_shape(ops);
  return ElementKernel{std::move(ops), std::move(read_ops),
                       bist::PeriodicFold{misr_width, std::move(reads),
                                          kBlockWords},
                       shape};
}

}  // namespace

MemoryGeometry memtest_geometry(std::uint64_t size_bytes) {
  const std::uint64_t words = size_bytes / sizeof(Word);
  int bits = 6;  // >= 64 words (512 B) so every size yields a usable run
  while (bits < 31 && (std::uint64_t{2} << bits) <= words) ++bits;
  return MemoryGeometry{.address_bits = bits, .word_bits = 64, .num_ports = 1};
}

int memtest_shards(const MemoryGeometry& geometry) {
  const std::size_t words = geometry.num_words();
  int shards = 1;
  while (shards < 64 &&
         words / (static_cast<std::size_t>(shards) * 2) >= 4096) {
    shards *= 2;
  }
  return shards;
}

std::optional<std::uint64_t> parse_size_bytes(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  std::size_t i = 0;
  for (; i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
       ++i) {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[i] - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  if (i == 0) return std::nullopt;
  std::uint64_t scale = 1;
  if (i < text.size()) {
    switch (text[i]) {
      case 'K': case 'k': scale = 1ull << 10; ++i; break;
      case 'M': case 'm': scale = 1ull << 20; ++i; break;
      case 'G': case 'g': scale = 1ull << 30; ++i; break;
      default: return std::nullopt;
    }
    // Accept "64M", "64MB", "64MiB".
    if (i < text.size() && (text[i] == 'i' || text[i] == 'I')) ++i;
    if (i < text.size() && (text[i] == 'b' || text[i] == 'B')) ++i;
  }
  if (i != text.size()) return std::nullopt;
  if (scale != 1 && value > ~std::uint64_t{0} / scale) return std::nullopt;
  return value * scale;
}

MemtestReport run_memtest(const march::MarchAlgorithm& alg,
                          const MemtestOptions& options) {
  if (const std::string err = alg.validate(); !err.empty()) {
    throw BackendError{"invalid algorithm: " + err};
  }
  if (options.passes < 1) throw BackendError{"passes must be >= 1"};
  if (options.misr_width < 1 || options.misr_width > 64) {
    throw BackendError{"misr width must be in [1, 64]"};
  }

  const MemoryGeometry geometry = memtest_geometry(options.size_bytes);
  // Hostram maps its storage directly and takes the block kernel; the
  // simulator (zero-filled like the kernel's anonymous mapping, so both
  // see identical pre-test contents) observes every access through the
  // shared op step.  Both walk the same addresses in the same order and
  // fold the same values, so signatures, counts and failure logs agree.
  std::unique_ptr<memsim::SramModel> sim;
  std::unique_ptr<HostRamBackend> hostram;
  if (options.backend == BackendKind::Sim) {
    sim = std::make_unique<memsim::SramModel>(geometry, Word{0}, true);
  } else {
    hostram = std::make_unique<HostRamBackend>(
        geometry, HostRamOptions{.request_huge_pages = options.huge_pages});
  }
  memsim::Memory& memory =
      sim ? static_cast<memsim::Memory&>(*sim) : *hostram;
  const std::span<Word> direct =
      hostram ? hostram->mapped_words() : std::span<Word>{};

  std::vector<Word> backgrounds = march::standard_backgrounds(64);
  if (options.backgrounds > 0 &&
      static_cast<std::size_t>(options.backgrounds) < backgrounds.size()) {
    backgrounds.resize(static_cast<std::size_t>(options.backgrounds));
  }

  const int shards = memtest_shards(geometry);
  const std::size_t words_per_shard =
      geometry.num_words() / static_cast<std::size_t>(shards);
  const Word mask = geometry.word_mask();

  std::vector<ShardState> states;
  states.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) states.emplace_back(options.misr_width);

  MemtestReport report;
  report.algorithm = alg.name();
  report.backend_name = std::string{to_string(options.backend)};
  report.geometry = geometry;
  report.buffer_bytes = geometry.num_words() * sizeof(Word);
  report.shards = shards;
  report.passes = options.passes;
  report.backgrounds = static_cast<int>(backgrounds.size());
  report.huge_pages = hostram && hostram->huge_pages();
  report.misr_width = options.misr_width;
  for (const march::MarchElement& el : alg.elements()) {
    MemtestPhase phase;
    phase.element = el.to_string();
    phase.is_pause = el.is_pause;
    report.phases.push_back(std::move(phase));
  }

  const std::size_t num_elements = alg.elements().size();
  std::vector<ElementKernel> kernels;
  if (!direct.empty()) {
    kernels.reserve(backgrounds.size() * num_elements);
    for (const Word bg : backgrounds) {
      for (const march::MarchElement& el : alg.elements()) {
        kernels.push_back(make_kernel(el, bg, mask, options.misr_width));
      }
    }
  }

  const auto record_failure = [&](ShardState& st, std::uint64_t op_index,
                                  Address addr, Word expected, Word actual) {
    ++st.run.mismatches;
    if (st.run.failures.size() < options.max_failures) {
      st.run.failures.push_back(march::Failure{
          op_index, march::MemOp::read(0, addr, expected), actual});
    }
  };

  // Behavioral reference: one virtual access and one MISR clock per op.
  const auto run_behavioral = [&](ShardState& st, std::size_t base,
                                  const march::MarchElement& el, Word bg) {
    const bool descending = el.order == march::AddressOrder::Down;
    for (std::size_t i = 0; i < words_per_shard; ++i) {
      const auto addr = static_cast<Address>(
          base + (descending ? words_per_shard - 1 - i : i));
      for (const march::MarchOp& op : el.ops) {
        const Word value = march::apply_background(op.data, bg, mask);
        march::apply_op(memory,
                        op.is_read() ? march::MemOp::read(0, addr, value)
                                     : march::MemOp::write(0, addr, value),
                        st.op_index++, st.run, options.max_failures,
                        [&st](Word actual) { st.misr.absorb(actual); });
      }
    }
  };

  // Direct-map kernel: walk a block of kBlockWords addresses with the
  // element's shape walk (memtest_walk.h), then advance the signature once
  // per block (MISR linearity); only a block with a mismatch is folded
  // read by read.
  const auto run_direct = [&](ShardState& st, std::size_t base,
                              const march::MarchElement& el,
                              const ElementKernel& kernel) {
    const bool descending = el.order == march::AddressOrder::Down;
    const std::size_t per_address = kernel.read_ops.size();
    const std::size_t num_ops = kernel.ops.size();
    const BlockWalk walk = block_walk(kernel.shape, descending);
    std::vector<bist::MisrDeviation> hits(per_address * kBlockWords);
    for (std::size_t first = 0; first < words_per_shard;
         first += kBlockWords) {
      const std::size_t count = std::min(kBlockWords, words_per_shard - first);
      const std::size_t num_hits =
          walk(&direct[descending ? base + words_per_shard - 1 - first
                                  : base + first],
               count, kernel.ops, hits.data());
      for (std::size_t h = 0; h < num_hits; ++h) {
        const std::size_t i = first + hits[h].index / per_address;
        const std::size_t k = hits[h].index % per_address;
        record_failure(
            st, st.op_index + i * num_ops + kernel.read_ops[k],
            static_cast<Address>(
                base + (descending ? words_per_shard - 1 - i : i)),
            kernel.fold.period()[k], hits[h].actual);
      }
      kernel.fold.fold(st.misr, count, {hits.data(), num_hits});
    }
    stream_fence();  // the SM0 walk streams; see memtest_walk.h
    st.op_index += words_per_shard * num_ops;
    st.run.reads += words_per_shard * per_address;
    st.run.writes += words_per_shard * (num_ops - per_address);
  };

  // Injection flips a bit immediately before the first element whose
  // leading op is a read, so no intervening write can mask it and that
  // element's read sweep must report the mismatch.
  std::size_t inject_before = alg.elements().size();
  if (options.inject_error) {
    for (std::size_t e = 0; e < alg.elements().size(); ++e) {
      const march::MarchElement& el = alg.elements()[e];
      if (!el.is_pause && !el.ops.empty() && el.ops.front().is_read()) {
        inject_before = e;
        break;
      }
    }
    if (inject_before == alg.elements().size()) {
      throw BackendError{
          "error injection requires an algorithm with a read-led march "
          "element"};
    }
  }

  // Fault the mapping in before the timed phases, one zero store per page
  // (contents stay zero-filled, like the sim's).
  if (hostram) {
    constexpr std::size_t kPageWords = 4096 / sizeof(Word);
    const auto prefault_start = Clock::now();
    common::parallel_shards(options.jobs, shards, [&](int shard) {
      const std::size_t base =
          static_cast<std::size_t>(shard) * words_per_shard;
      for (std::size_t i = 0; i < words_per_shard; i += kPageWords) {
        direct[base + i] = 0;
      }
    });
    report.prefault_seconds = seconds_since(prefault_start);
  }

  const auto wall_start = Clock::now();
  const std::uint64_t progress_total =
      static_cast<std::uint64_t>(options.passes) * backgrounds.size();
  std::uint64_t progress_done = 0;
  bool pending_inject = options.inject_error;

  for (int pass = 0; pass < options.passes && report.completed; ++pass) {
    for (std::size_t b = 0; b < backgrounds.size(); ++b) {
      const Word bg = backgrounds[b];
      for (std::size_t e = 0; e < num_elements; ++e) {
        if (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed)) {
          report.completed = false;
          break;
        }
        const march::MarchElement& el = alg.elements()[e];
        MemtestPhase& phase = report.phases[e];
        if (el.is_pause) {
          memory.advance_time_ns(el.pause_ns);
          ++report.pauses;
          continue;
        }
        if (pending_inject && e == inject_before) {
          pending_inject = false;
          report.injected = true;
          const auto target = static_cast<Address>(words_per_shard / 2);
          memory.write(0, target, memory.read(0, target) ^ Word{1});
        }
        const auto phase_start = Clock::now();
        common::parallel_shards(options.jobs, shards, [&](int shard) {
          ShardState& st = states[static_cast<std::size_t>(shard)];
          const std::size_t base =
              static_cast<std::size_t>(shard) * words_per_shard;
          if (direct.empty()) {
            run_behavioral(st, base, el, bg);
          } else {
            run_direct(st, base, el, kernels[b * num_elements + e]);
          }
        });
        if (hostram) hostram->fence();
        phase.seconds += seconds_since(phase_start);
        std::uint64_t phase_reads = 0;
        std::uint64_t phase_writes = 0;
        for (const march::MarchOp& op : el.ops) {
          (op.is_read() ? phase_reads : phase_writes) += 1;
        }
        phase.reads += phase_reads * geometry.num_words();
        phase.writes += phase_writes * geometry.num_words();
      }
      if (!report.completed) break;
      ++progress_done;
      if (options.progress) options.progress(progress_done, progress_total);
    }
    if (!report.completed) break;
  }

  bist::Misr total{options.misr_width, 0};
  for (ShardState& st : states) {
    total.absorb(st.misr.signature());
    report.reads += st.run.reads;
    report.writes += st.run.writes;
    report.mismatches += st.run.mismatches;
    for (march::Failure& f : st.run.failures) {
      if (report.failures.size() < options.max_failures) {
        report.failures.push_back(std::move(f));
      }
    }
  }
  report.signature = total.signature();
  report.wall_seconds = seconds_since(wall_start);
  return report;
}

std::string format_memtest_report(const MemtestReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "memtest \"%s\" on %s\n",
                report.algorithm.c_str(), report.backend_name.c_str());
  out += line;
  std::snprintf(line, sizeof line,
                "buffer: %" PRIu64 " bytes (%zu words x %d bits), %d shards\n",
                report.buffer_bytes, report.geometry.num_words(),
                report.geometry.word_bits, report.shards);
  out += line;
  std::snprintf(line, sizeof line,
                "plan: passes %d, backgrounds %d, elements %zu%s\n",
                report.passes, report.backgrounds, report.phases.size(),
                report.injected ? ", injected error" : "");
  out += line;
  std::snprintf(line, sizeof line,
                "ops: reads %" PRIu64 " writes %" PRIu64 " pauses %" PRIu64
                " mismatches %" PRIu64 "\n",
                report.reads, report.writes, report.pauses,
                report.mismatches);
  out += line;
  std::snprintf(line, sizeof line, "signature: 0x%016llX (misr width %d)\n",
                static_cast<unsigned long long>(report.signature),
                report.misr_width);
  out += line;
  const std::size_t shown = std::min<std::size_t>(report.failures.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    const march::Failure& f = report.failures[i];
    std::snprintf(line, sizeof line,
                  "fail[%zu]: addr=0x%X expected=0x%llX actual=0x%llX\n", i,
                  f.op.addr, static_cast<unsigned long long>(f.op.data),
                  static_cast<unsigned long long>(f.actual));
    out += line;
  }
  if (report.failures.size() > shown) {
    std::snprintf(line, sizeof line, "... %zu more failures\n",
                  report.failures.size() - shown);
    out += line;
  }
  out += report.completed ? (report.passed() ? "PASS\n" : "FAIL\n")
                          : "INTERRUPTED\n";
  return out;
}

std::string format_memtest_throughput(const MemtestReport& report) {
  std::string out;
  char line[256];
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  double read_bytes_total = 0.0;
  double write_bytes_total = 0.0;
  double read_seconds = 0.0;
  double write_seconds = 0.0;
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const MemtestPhase& p = report.phases[i];
    if (p.is_pause) {
      std::snprintf(line, sizeof line, "phase[%zu] %s: pause\n", i,
                    p.element.c_str());
      out += line;
      continue;
    }
    const double rb = static_cast<double>(p.reads) * sizeof(Word);
    const double wb = static_cast<double>(p.writes) * sizeof(Word);
    const double gbps =
        p.seconds > 0.0 ? (rb + wb) / kGiB / p.seconds : 0.0;
    std::snprintf(line, sizeof line,
                  "phase[%zu] %s: %.3f GiB touched, %.3f s, %.2f GiB/s\n", i,
                  p.element.c_str(), (rb + wb) / kGiB, p.seconds, gbps);
    out += line;
    // Attribute a mixed phase's wall time to reads and writes in
    // proportion to bytes moved; pure phases attribute exactly.
    if (rb + wb > 0.0) {
      const double tr = p.seconds * rb / (rb + wb);
      read_seconds += tr;
      write_seconds += p.seconds - tr;
      read_bytes_total += rb;
      write_bytes_total += wb;
    }
  }
  const double sustained_read =
      read_seconds > 0.0 ? read_bytes_total / kGiB / read_seconds : 0.0;
  const double sustained_write =
      write_seconds > 0.0 ? write_bytes_total / kGiB / write_seconds : 0.0;
  std::snprintf(line, sizeof line,
                "sustained: read %.2f GiB/s, write %.2f GiB/s%s\n",
                sustained_read, sustained_write,
                report.huge_pages ? " (huge pages)" : "");
  out += line;
  if (report.prefault_seconds > 0.0) {
    std::snprintf(line, sizeof line, "prefault %.3f s (untimed)\n",
                  report.prefault_seconds);
    out += line;
  }
  std::snprintf(line, sizeof line, "wall %.3f s\n", report.wall_seconds);
  out += line;
  return out;
}

}  // namespace pmbist::backend

#include "gen.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <vector>

namespace perfbench {

std::string random_march_dsl(Rng& rng, int ops) {
  static const char* const kOrders[] = {"up", "down", "any"};
  std::string out;
  int value = static_cast<int>(rng.below(2));
  int left = ops;
  bool first = true;
  while (left > 0) {
    const int chunk =
        std::min(left, 1 + static_cast<int>(rng.below(first ? 2 : 4)));
    if (!first) out += "; ";
    out += first ? "any" : kOrders[rng.below(3)];
    out += '(';
    for (int i = 0; i < chunk; ++i) {
      if (i > 0) out += ',';
      // The first op of the algorithm must be a write (power-up contents
      // are undefined); afterwards reads expect the cell's current value.
      const bool write = (first && i == 0) || rng.below(2) == 0;
      if (write) value = static_cast<int>(rng.below(2));
      out += write ? 'w' : 'r';
      out += static_cast<char>('0' + value);
    }
    out += ')';
    left -= chunk;
    first = false;
  }
  return out;
}

namespace {

struct Slot {
  int addr_bits;
  int word_bits;
  const char* controller;
  const char* group;  ///< "" = dedicated controller
  std::vector<const char*> algorithms;  ///< equal op count per cell
  int ops;                              ///< march ops per cell
};

const std::vector<const char*> k5n{"MATS+"};
const std::vector<const char*> k6n{"March X", "MATS++"};
const std::vector<const char*> k8n{"March Y"};
const std::vector<const char*> k10n{"March C"};

std::vector<Slot> chip_slots() {
  std::vector<Slot> slots;
  for (const char* g : {"u0", "u1"}) {
    slots.push_back({13, 8, "ucode", g, k6n, 6});
    slots.push_back({12, 16, "ucode", g, k10n, 10});
    slots.push_back({11, 32, "ucode", g, k8n, 8});
    slots.push_back({10, 8, "ucode", g, k10n, 10});
  }
  for (const char* g : {"p0", "p1"}) {
    slots.push_back({12, 8, "pfsm", g, k6n, 6});
    slots.push_back({11, 16, "pfsm", g, k5n, 5});
    slots.push_back({10, 32, "pfsm", g, k8n, 8});
  }
  slots.push_back({12, 16, "pfsm", "", k6n, 6});
  slots.push_back({11, 8, "pfsm", "", k8n, 8});
  slots.push_back({13, 16, "hardwired", "", k10n, 10});
  slots.push_back({13, 32, "hardwired", "", k5n, 5});
  slots.push_back({12, 32, "hardwired", "", k10n, 10});
  slots.push_back({12, 8, "hardwired", "", k8n, 8});
  slots.push_back({11, 16, "hardwired", "", k6n, 6});
  slots.push_back({10, 16, "hardwired", "", k10n, 10});
  slots.push_back({10, 32, "hardwired", "", k6n, 6});
  return slots;
}

std::string fmt(const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

}  // namespace

ChipInputs generate_chip(std::uint64_t seed) {
  Rng rng{seed ^ 0xC41Bull};
  std::vector<Slot> slots = chip_slots();
  // File order (and with it plan-assignment order) varies with the seed.
  rng.shuffle(slots);

  ChipInputs in;
  std::string& chip = in.chip;
  chip += fmt("soc gen_%04llx\n", static_cast<unsigned long long>(seed & 0xFFFF));
  chip += "power_budget 220\n";

  std::vector<std::string> names;
  std::vector<std::uint64_t> costs;  ///< session cycles, roughly
  std::string assigns;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    const std::string name =
        fmt("m%02zu_%04llx", i, static_cast<unsigned long long>(rng.below(0x10000)));
    names.push_back(name);
    costs.push_back((std::uint64_t{1} << s.addr_bits) *
                    static_cast<std::uint64_t>(s.ops) *
                    static_cast<std::uint64_t>(std::bit_width(
                        static_cast<unsigned>(s.word_bits))));
    chip += fmt("mem %s addr_bits=%d word_bits=%d seed=%llu\n", name.c_str(),
                s.addr_bits, s.word_bits,
                static_cast<unsigned long long>(1 + rng.below(1u << 20)));
    const char* alg = s.algorithms[rng.below(s.algorithms.size())];
    assigns += fmt("assign %s \"%s\" %s", name.c_str(), alg, s.controller);
    if (*s.group != '\0') assigns += fmt(" group=%s", s.group);
    assigns += '\n';
  }

  // The repairable array: bit-oriented, one spare row and column, one
  // single-cell defect that one spare line repairs.
  const std::string rep =
      fmt("rep_%04llx", static_cast<unsigned long long>(rng.below(0x10000)));
  names.push_back(rep);
  costs.push_back(std::uint64_t{10} << 10);
  chip += fmt(
      "mem %s addr_bits=10 word_bits=1 row_bits=5 scramble=%llu seed=%llu "
      "spare_rows=1 spare_cols=1\n",
      rep.c_str(), static_cast<unsigned long long>(1 + rng.below(100)),
      static_cast<unsigned long long>(1 + rng.below(1u << 20)));
  const auto cell = static_cast<unsigned long long>(rng.below(1024));
  if (rng.below(2) == 0) {
    chip += fmt("fault %s SAF cell=%llu:0 value=%llu\n", rep.c_str(), cell,
                static_cast<unsigned long long>(rng.below(2)));
  } else {
    chip += fmt("fault %s TF cell=%llu:0 rising=%llu\n", rep.c_str(), cell,
                static_cast<unsigned long long>(rng.below(2)));
  }
  assigns += fmt("assign %s \"March C\" ucode\n", rep.c_str());
  chip += assigns;
  in.memories = static_cast<int>(names.size());

  // Mission profile: every memory idles in kWindows windows, one per
  // period at a seed-chosen offset, each as wide as one uninterrupted
  // session of its assignment (ops per cell x cells x data backgrounds),
  // so a pass completes even when bus lanes and controller seats contend.
  constexpr std::uint64_t kWindows = 4;
  std::uint64_t widest = 0;
  for (const std::uint64_t c : costs) widest = std::max(widest, c);
  const std::uint64_t period = 2 * widest;
  std::string& profile = in.profile;
  profile += fmt("profile gen_%04llx_mission\n",
                 static_cast<unsigned long long>(seed & 0xFFFF));
  profile += fmt("horizon %llu\n", static_cast<unsigned long long>(period * kWindows));
  profile += "bus_budget 6\n";
  for (std::size_t m = 0; m < names.size(); ++m) {
    for (std::uint64_t k = 0; k < kWindows; ++k) {
      const std::uint64_t start = k * period + rng.below(period - costs[m]);
      profile += fmt("window %s start=%llu end=%llu\n", names[m].c_str(),
                     static_cast<unsigned long long>(start),
                     static_cast<unsigned long long>(start + costs[m]));
    }
  }
  return in;
}

}  // namespace perfbench

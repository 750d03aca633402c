#include "backend/memtest_walk.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pmbist::backend {
namespace {

/// Read/write pattern of SM0..SM7, one letter per op (the data relations
/// of components.h do not matter here: values are runtime operands).
constexpr std::array<std::string_view, kNumWalkShapes> kShapes{
    "w", "rw", "rwrw", "rww", "rrr", "r", "rwww", "rwr"};

inline void stream_store(Word* cell, Word value) {
#if defined(__x86_64__)
  _mm_stream_si64(reinterpret_cast<long long*>(cell),
                  static_cast<long long>(value));
#else
  *cell = value;
#endif
}

constexpr std::size_t kLineWords = 64 / sizeof(Word);
/// How far ahead of the walk the check pass prefetches: two 256-word
/// blocks, far enough to cover DRAM latency at one thread's read rate.
constexpr std::size_t kPrefetchWords = 512;

/// Prefetches the line kPrefetchWords cells further along the walk.  The
/// address may lie past the shard or the mapping; a prefetch never
/// faults, and integer arithmetic keeps the pointer itself in bounds.
template <int Step>
inline void prefetch_ahead(const Word* first, std::size_t i) {
  const auto offset = Step * static_cast<std::ptrdiff_t>(
                                 (i + kPrefetchWords) * sizeof(Word));
  __builtin_prefetch(reinterpret_cast<const void*>(
      reinterpret_cast<std::uintptr_t>(first) +
      static_cast<std::uintptr_t>(offset)));
}

template <int Step>
std::size_t walk_generic(Word* first, std::size_t count,
                         std::span<const KernelOp> ops,
                         bist::MisrDeviation* hits) {
  std::size_t num_hits = 0;
  std::uint32_t read_index = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Word& cell = first[Step * static_cast<std::ptrdiff_t>(i)];
    for (const KernelOp& op : ops) {
      if (!op.read) {
        cell = op.value;
        continue;
      }
      const Word actual = cell;
      if (actual != op.value) [[unlikely]] {
        hits[num_hits++] = bist::MisrDeviation{read_index, actual};
      }
      ++read_index;
    }
  }
  return num_hits;
}

template <int Step, std::size_t Shape>
std::size_t shape_walk(Word* first, std::size_t count,
                       std::span<const KernelOp> ops,
                       bist::MisrDeviation* hits) {
  constexpr std::string_view kPattern = kShapes[Shape];
  constexpr std::size_t kOps = kPattern.size();
  constexpr std::size_t kLead = std::min(kPattern.find('w'), kOps);
  // Op values in locals: a store through `first` could otherwise alias
  // them and force a reload per cell.
  std::array<Word, kOps> value{};
  for (std::size_t k = 0; k < kOps; ++k) value[k] = ops[k].value;
  const auto cell = [first](std::size_t i) -> Word& {
    return first[Step * static_cast<std::ptrdiff_t>(i)];
  };

  Word written = 0;
  for (std::size_t k = kLead; k < kOps; ++k) {
    if (kPattern[k] == 'w') {
      written = value[k];
    } else if (value[k] != written) {
      return walk_generic<Step>(first, count, ops, hits);
    }
  }
  if constexpr (kLead > 0) {
    Word diff = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (i % kLineWords == 0) prefetch_ahead<Step>(first, i);
      const Word actual = cell(i);
      for (std::size_t k = 0; k < kLead; ++k) diff |= actual ^ value[k];
    }
    if (diff != 0) [[unlikely]] {
      return walk_generic<Step>(first, count, ops, hits);
    }
  }
  if constexpr (kLead == 0) {
    // SM0: nothing is read back in this element, so the stores bypass
    // the cache.  A read of the same line first would make that ~10x
    // slower, which is why only this shape streams.
    for (std::size_t i = 0; i < count; ++i) stream_store(&cell(i), value[0]);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t k = kLead; k < kOps; ++k) {
        if (kPattern[k] == 'w') cell(i) = value[k];
      }
    }
  }
  return 0;
}

template <int Step>
constexpr std::array<BlockWalk, kNumWalkShapes> shape_walks() {
  return []<std::size_t... S>(std::index_sequence<S...>) {
    return std::array<BlockWalk, kNumWalkShapes>{&shape_walk<Step, S>...};
  }(std::make_index_sequence<kNumWalkShapes>{});
}

constexpr std::array<BlockWalk, kNumWalkShapes> kAscending = shape_walks<1>();
constexpr std::array<BlockWalk, kNumWalkShapes> kDescending =
    shape_walks<-1>();

}  // namespace

int walk_shape(std::span<const KernelOp> ops) {
  for (std::size_t s = 0; s < kShapes.size(); ++s) {
    const std::string_view pattern = kShapes[s];
    if (std::equal(pattern.begin(), pattern.end(), ops.begin(), ops.end(),
                   [](char p, const KernelOp& op) {
                     return (p == 'r') == op.read;
                   })) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

BlockWalk block_walk(int shape, bool descending) {
  if (shape < 0) return descending ? &walk_generic<-1> : &walk_generic<1>;
  const auto s = static_cast<std::size_t>(shape);
  return descending ? kDescending.at(s) : kAscending.at(s);
}

void stream_fence() {
#if defined(__x86_64__)
  _mm_sfence();
#endif
}

}  // namespace pmbist::backend

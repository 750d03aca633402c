#include "backend/memtest_walk.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
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

constexpr std::size_t kLineBytes = 64;
constexpr std::size_t kLineWords = kLineBytes / sizeof(Word);

/// The lowest of the `count` cells a walk from `first` visits.
template <int Step, class T>
T* lowest(T* first, std::size_t count) {
  return Step > 0 || count == 0 ? first : first - (count - 1);
}

/// Offset from the lowest cell of the `width` cells a `count`-cell walk
/// visits at walk position `pos`: an ascending walk starts at the bottom,
/// a descending one at the top.
template <int Step>
std::size_t at(std::size_t pos, std::size_t width, std::size_t count) {
  return Step > 0 ? pos : count - width - pos;
}

/// How far ahead of the walk the check loops prefetch: two 256-word
/// blocks, far enough to cover DRAM latency at one thread's read rate.
constexpr std::size_t kPrefetchBytes = 4096;

/// Prefetches the line kPrefetchBytes further along the walk than `line`.
/// The address may lie past the shard or the mapping; a prefetch never
/// faults, and integer arithmetic keeps the pointer itself in bounds.
template <int Step>
inline void prefetch_ahead(const Word* line) {
  __builtin_prefetch(reinterpret_cast<const void*>(
      reinterpret_cast<std::uintptr_t>(line) +
      static_cast<std::uintptr_t>(Step *
                                  static_cast<std::ptrdiff_t>(kPrefetchBytes))));
}

inline void stream_word(Word* cell, Word value) {
#if defined(__x86_64__)
  _mm_stream_si64(reinterpret_cast<long long*>(cell),
                  static_cast<long long>(value));
#else
  *cell = value;
#endif
}

/// Of `count` cells from `lo`, [0, head) and [body, count) share a line
/// with cells outside them; [head, body) are whole 64-byte lines.
struct LineSplit {
  std::size_t head;
  std::size_t body;
};

LineSplit split_lines(const Word* lo, std::size_t count) {
  const auto misalign = reinterpret_cast<std::uintptr_t>(lo) % kLineBytes;
  const std::size_t head =
      std::min(count, (kLineBytes - misalign) % kLineBytes / sizeof(Word));
  return {head, head + (count - head) / kLineWords * kLineWords};
}

/// The three loops a shape walk is made of, each over the `count` cells a
/// walk from `first` visits, in walk order, one 64-byte line per
/// iteration: `differs` (whether any cell != value; it also prefetches one
/// line per iteration, which needs no branch), `fill` (plain stores) and
/// `stream` (non-temporal stores; whole aligned lines in one go, the
/// partial lines at either end word by word).
///
/// Portable: eight-cell chunks with a fixed inner trip count, which the
/// compiler turns into vector operations of its baseline ISA even at -O2;
/// on x86-64 `stream` stores each line with four SSE2 streaming stores.
struct PortableLoops {
  template <int Step>
  static bool differs(const Word* first, std::size_t count, Word value) {
    const Word* lo = lowest<Step>(first, count);
    const std::size_t full = count - count % kLineWords;
    std::array<Word, kLineWords> acc{};
    for (std::size_t pos = 0; pos < full; pos += kLineWords) {
      const Word* chunk = lo + at<Step>(pos, kLineWords, count);
      prefetch_ahead<Step>(chunk);
      for (std::size_t k = 0; k < kLineWords; ++k) acc[k] |= chunk[k] ^ value;
    }
    Word diff = 0;
    for (std::size_t pos = full; pos < count; ++pos) {
      diff |= lo[at<Step>(pos, 1, count)] ^ value;
    }
    for (const Word a : acc) diff |= a;
    return diff != 0;
  }

  template <int Step>
  static void fill(Word* first, std::size_t count, Word value) {
    Word* lo = lowest<Step>(first, count);
    const std::size_t full = count - count % kLineWords;
    for (std::size_t pos = 0; pos < full; pos += kLineWords) {
      Word* chunk = lo + at<Step>(pos, kLineWords, count);
      for (std::size_t k = 0; k < kLineWords; ++k) chunk[k] = value;
    }
    for (std::size_t pos = full; pos < count; ++pos) {
      lo[at<Step>(pos, 1, count)] = value;
    }
  }

  template <int Step>
  static void stream(Word* first, std::size_t count, Word value) {
#if defined(__x86_64__)
    Word* lo = lowest<Step>(first, count);
    const auto [head, body] = split_lines(lo, count);
    const __m128i want = _mm_set1_epi64x(static_cast<long long>(value));
    const auto store_line = [&](std::size_t i) {
      auto* line = reinterpret_cast<__m128i*>(lo + i);
      for (int k = 0; k < 4; ++k) _mm_stream_si128(line + k, want);
    };
    if constexpr (Step > 0) {
      for (std::size_t i = 0; i < head; ++i) stream_word(lo + i, value);
      for (std::size_t i = head; i < body; i += kLineWords) store_line(i);
      for (std::size_t i = body; i < count; ++i) stream_word(lo + i, value);
    } else {
      for (std::size_t i = count; i > body; --i) stream_word(lo + i - 1, value);
      for (std::size_t i = body; i > head; i -= kLineWords) {
        store_line(i - kLineWords);
      }
      for (std::size_t i = head; i > 0; --i) stream_word(lo + i - 1, value);
    }
#else
    fill<Step>(first, count, value);
#endif
  }
};

#if defined(__x86_64__)
/// AVX-512: one 64-byte vector per line.
struct Avx512Loops {
  template <int Step>
  __attribute__((target("avx512f"))) static bool differs(const Word* first,
                                                         std::size_t count,
                                                         Word value) {
    const Word* lo = lowest<Step>(first, count);
    const std::size_t full = count - count % kLineWords;
    const __m512i want = _mm512_set1_epi64(static_cast<long long>(value));
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t pos = 0; pos < full; pos += kLineWords) {
      const Word* chunk = lo + at<Step>(pos, kLineWords, count);
      prefetch_ahead<Step>(chunk);
      acc = _mm512_or_si512(
          acc, _mm512_xor_si512(_mm512_loadu_si512(chunk), want));
    }
    Word diff = 0;
    for (std::size_t pos = full; pos < count; ++pos) {
      diff |= lo[at<Step>(pos, 1, count)] ^ value;
    }
    return diff != 0 || _mm512_test_epi64_mask(acc, acc) != 0;
  }

  template <int Step>
  __attribute__((target("avx512f"))) static void fill(Word* first,
                                                      std::size_t count,
                                                      Word value) {
    Word* lo = lowest<Step>(first, count);
    const std::size_t full = count - count % kLineWords;
    const __m512i want = _mm512_set1_epi64(static_cast<long long>(value));
    for (std::size_t pos = 0; pos < full; pos += kLineWords) {
      _mm512_storeu_si512(lo + at<Step>(pos, kLineWords, count), want);
    }
    for (std::size_t pos = full; pos < count; ++pos) {
      lo[at<Step>(pos, 1, count)] = value;
    }
  }

  template <int Step>
  __attribute__((target("avx512f"))) static void stream(Word* first,
                                                        std::size_t count,
                                                        Word value) {
    Word* lo = lowest<Step>(first, count);
    const auto [head, body] = split_lines(lo, count);
    const __m512i want = _mm512_set1_epi64(static_cast<long long>(value));
    if constexpr (Step > 0) {
      for (std::size_t i = 0; i < head; ++i) stream_word(lo + i, value);
      for (std::size_t i = head; i < body; i += kLineWords) {
        _mm512_stream_si512(reinterpret_cast<__m512i*>(lo + i), want);
      }
      for (std::size_t i = body; i < count; ++i) stream_word(lo + i, value);
    } else {
      for (std::size_t i = count; i > body; --i) stream_word(lo + i - 1, value);
      for (std::size_t i = body; i > head; i -= kLineWords) {
        _mm512_stream_si512(reinterpret_cast<__m512i*>(lo + i - kLineWords),
                            want);
      }
      for (std::size_t i = head; i > 0; --i) stream_word(lo + i - 1, value);
    }
  }
};
#endif

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

template <class Loops, int Step, std::size_t Shape>
std::size_t shape_walk(Word* first, std::size_t count,
                       std::span<const KernelOp> ops,
                       bist::MisrDeviation* hits) {
  constexpr std::string_view kPattern = kShapes[Shape];
  constexpr std::size_t kOps = kPattern.size();
  constexpr std::size_t kLead = std::min(kPattern.find('w'), kOps);

  // Every leading read must find the first one's value, and every later
  // read the value written just before it.  A read that cannot mismatches
  // at every cell, which only the generic walk records.  `written` ends as
  // the cell's final value.
  Word written = ops[0].value;
  for (std::size_t k = 0; k < kOps; ++k) {
    if (kPattern[k] == 'w') {
      written = ops[k].value;
    } else if (ops[k].value != written) {
      return walk_generic<Step>(first, count, ops, hits);
    }
  }
  if constexpr (kLead > 0) {
    if (Loops::template differs<Step>(first, count, ops[0].value))
        [[unlikely]] {
      return walk_generic<Step>(first, count, ops, hits);
    }
  }
  if constexpr (kLead == 0) {
    // SM0: nothing is read back in this element, so the stores bypass
    // the cache.  A read of the same line first would make that ~10x
    // slower, which is why only this shape streams.
    Loops::template stream<Step>(first, count, written);
  } else if constexpr (kLead < kOps) {
    Loops::template fill<Step>(first, count, written);
  }
  return 0;
}

template <class Loops, int Step>
constexpr std::array<BlockWalk, kNumWalkShapes> shape_walks() {
  return []<std::size_t... S>(std::index_sequence<S...>) {
    return std::array<BlockWalk, kNumWalkShapes>{
        &shape_walk<Loops, Step, S>...};
  }(std::make_index_sequence<kNumWalkShapes>{});
}

/// Every shape walk of one tier, ascending and descending.
template <class Loops>
struct TierWalks {
  static constexpr std::array<BlockWalk, kNumWalkShapes> up =
      shape_walks<Loops, 1>();
  static constexpr std::array<BlockWalk, kNumWalkShapes> down =
      shape_walks<Loops, -1>();
};

template <class Loops>
BlockWalk tier_walk(std::size_t shape, bool descending) {
  return descending ? TierWalks<Loops>::down.at(shape)
                    : TierWalks<Loops>::up.at(shape);
}

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

std::string_view to_string(WalkTier tier) {
  switch (tier) {
    case WalkTier::Portable: return "portable";
    case WalkTier::Avx512: return "avx512";
  }
  return "?";
}

bool walk_tier_supported(WalkTier tier) {
  switch (tier) {
    case WalkTier::Portable: return true;
    case WalkTier::Avx512:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

WalkTier best_walk_tier() {
  static const WalkTier best = walk_tier_supported(WalkTier::Avx512)
                                   ? WalkTier::Avx512
                                   : WalkTier::Portable;
  return best;
}

BlockWalk block_walk(int shape, bool descending) {
  return block_walk(shape, descending, best_walk_tier());
}

BlockWalk block_walk(int shape, bool descending, WalkTier tier) {
  if (!walk_tier_supported(tier)) {
    throw std::invalid_argument{"walk tier " + std::string{to_string(tier)} +
                                " is not supported on this CPU"};
  }
  if (shape < 0) return descending ? &walk_generic<-1> : &walk_generic<1>;
  const auto s = static_cast<std::size_t>(shape);
#if defined(__x86_64__)
  if (tier == WalkTier::Avx512) return tier_walk<Avx512Loops>(s, descending);
#endif
  return tier_walk<PortableLoops>(s, descending);
}

void stream_fence() {
#if defined(__x86_64__)
  _mm_sfence();
#endif
}

}  // namespace pmbist::backend

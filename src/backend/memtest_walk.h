#pragma once
// Block walks of the memtest engine's direct-map kernel (memtest.cpp).
//
// A walk applies one march element's ops, background already applied, to
// `count` consecutive cells in walk order and reports every read that
// differs from its expected value.  Two kinds of walk exist:
//
//   generic   interprets any op list, op by op, at every cell — the
//             reference and the fallback (e.g. March B's 6-op element);
//   shape     one compiled loop per read/write pattern of the paper's
//             canned march components SM0..SM7 (Eq. 2,
//             mbist_pfsm/components.h).  A shape walk first checks the
//             element's leading reads over the whole block, then applies
//             its writes; a block with any mismatch is handed, untouched,
//             to the generic walk.  A read that follows a write of the same
//             cell returns that write's value, so it either mismatches at
//             every cell (generic walk) or at none.
//
// The shape walks' check and store loops run in vector registers, one
// 64-byte line per iteration.  Each walk exists once per tier: AVX-512 on
// x86-64 CPUs that report it, and a portable loop the compiler vectorises
// for its baseline ISA.  block_walk(shape, descending) picks the best tier
// the CPU supports once; the tier overload is the seam the tests use to
// run every tier.  The check loops prefetch one line 4 KiB ahead per
// iteration, with no branch: a branch in the loop would keep it scalar.
// The write-only SM0 walk streams whole 64-byte lines (non-temporal
// stores) on x86-64: a shard must call stream_fence() before it reaches
// the element barrier.  All ISA-specific code lives in memtest_walk.cpp.
//
// For any op values, a shape walk of any tier returns the same hits and
// leaves the same memory contents as the generic walk (test_backend pins
// this).

#include <cstddef>
#include <span>
#include <string_view>

#include "backend/backend.h"
#include "bist/misr.h"

namespace pmbist::backend {

struct KernelOp {
  Word value;  ///< written value, or expected value for reads
  bool read;
};

/// Walks `count` cells from `first`, stepping by +1 or -1 word; writes
/// are plain stores.  A read that differs from its expected value is
/// recorded in `hits` (index = read number within the block, ascending).
/// Returns the number of hits.
using BlockWalk = std::size_t (*)(Word* first, std::size_t count,
                                  std::span<const KernelOp> ops,
                                  bist::MisrDeviation* hits);

inline constexpr int kNumWalkShapes = 8;

/// The SMi whose read/write pattern `ops` has, or -1 (generic walk).
[[nodiscard]] int walk_shape(std::span<const KernelOp> ops);

/// The walk for `shape` (-1: generic) in the given direction, in the best
/// tier this CPU supports.
[[nodiscard]] BlockWalk block_walk(int shape, bool descending);

/// Instruction-set tiers of the shape walks, worst to best.
enum class WalkTier { Portable, Avx512 };
inline constexpr WalkTier kWalkTiers[] = {WalkTier::Portable,
                                          WalkTier::Avx512};

[[nodiscard]] std::string_view to_string(WalkTier tier);
/// Whether this build and CPU can run `tier`'s walks.
[[nodiscard]] bool walk_tier_supported(WalkTier tier);
/// The tier block_walk(shape, descending) uses.
[[nodiscard]] WalkTier best_walk_tier();
/// The walk for `shape` in `tier` (must be supported; throws
/// std::invalid_argument otherwise).  A test seam, not a user setting.
[[nodiscard]] BlockWalk block_walk(int shape, bool descending, WalkTier tier);

/// Orders this thread's streaming stores before its later stores (sfence
/// on x86-64, nothing elsewhere).  Cheap when nothing was streamed.
void stream_fence();

}  // namespace pmbist::backend

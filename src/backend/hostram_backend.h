#pragma once
// HostRamBackend: march streams against real host memory.
//
// A memsim::Memory like the simulator, so every engine written against
// that interface (sessions, stream runs, repair views) runs on host RAM
// unchanged.  On top of it the backend exposes the mapping itself
// (mapped_words(), fence()) for the memtest engine's direct-map kernel.
//
// The backing store is a large mmap'd anonymous buffer — one 64-bit host
// word per memory cell, zero-filled by the kernel.  Reads mask to the
// geometry's word width; writes store the masked value, so the backend
// honors the same access contract as the simulator (and produces the same
// values the march expansion expects).
//
// Every normal mapping of at least 2 MiB is madvise(MADV_HUGEPAGE)d, so
// transparent huge pages can back it where the host allows.  Explicit huge
// pages are a request, not a requirement: when
// HostRamOptions::request_huge_pages is set the backend first tries
// MAP_HUGETLB and, if the kernel refuses (no hugetlb pool configured),
// falls back to the normal mapping.  huge_pages() reports whether the
// MAP_HUGETLB mapping was obtained; transparent huge pages do not count.
//
// fence() is a sequentially-consistent std::atomic_thread_fence — the
// memtest engine issues one at every shard barrier so each march element's
// stores are globally visible before the next element's loads.

#include <cstddef>
#include <span>

#include "backend/backend.h"
#include "memsim/memory.h"

namespace pmbist::backend {

struct HostRamOptions {
  /// Try MAP_HUGETLB first; fall back gracefully when unavailable.
  bool request_huge_pages = false;
};

class HostRamBackend final : public memsim::Memory {
 public:
  /// Maps geometry.num_words() host words; the destructor unmaps them.
  /// Throws BackendError when the geometry needs more than one port (host
  /// RAM has no port semantics to model) or the mapping fails outright.
  explicit HostRamBackend(MemoryGeometry geometry, HostRamOptions options = {});
  ~HostRamBackend() override;

  [[nodiscard]] Word read(int port, Address addr) override;
  void write(int port, Address addr, Word data) override;

  /// Orders all prior accesses before all later ones (seq-cst fence).
  void fence();

  /// The mapped storage, one host word per cell.
  [[nodiscard]] std::span<Word> mapped_words() {
    return {words_, geometry().num_words()};
  }
  /// Whether the mapping is a MAP_HUGETLB one (transparent huge pages
  /// backing a normal mapping do not count).
  [[nodiscard]] bool huge_pages() const noexcept { return huge_pages_; }
  /// Page size of the mapping.
  [[nodiscard]] std::size_t page_bytes() const noexcept { return page_bytes_; }

 private:
  Word* words_ = nullptr;
  std::size_t mapped_bytes_ = 0;
  bool huge_pages_ = false;
  std::size_t page_bytes_ = 0;
};

}  // namespace pmbist::backend

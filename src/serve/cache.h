#pragma once
// Lint-verdict cache: the serve-layer twin of march::StreamCache.
//
// Lint requests are pure functions of their inputs (text + options), and
// fleet clients tend to re-lint the same units over and over (every commit
// re-checks mostly unchanged files), so the server memoizes the complete
// rendered verdict — payload string and exit code — keyed by an FNV-1a
// content hash over every input that can change the answer.  Entries are
// small (a few hundred bytes of rendered text), so the budget is an entry
// count rather than bytes.  Thread-safe; owned per-Server, never global
// (the reentrancy contract of campaign.h applies here too).

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace pmbist::serve {

class VerdictCache {
 public:
  /// `max_entries` bounds the entry count; 0 = unbounded.
  explicit VerdictCache(std::size_t max_entries = 256)
      : max_entries_{max_entries} {}

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  struct Verdict {
    int exit_code = 0;
    std::string payload;  ///< complete CLI-identical stdout
  };

  /// Cache lookup; refreshes the entry's LRU position.  Counts a hit or a
  /// miss.
  [[nodiscard]] std::optional<Verdict> get(std::uint64_t key);

  /// Inserts (or refreshes) a verdict and evicts least-recently-used
  /// entries above the budget.
  void put(std::uint64_t key, Verdict verdict);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    Verdict verdict;
  };

  mutable std::mutex mu_;
  std::size_t max_entries_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  Stats counters_;
};

}  // namespace pmbist::serve

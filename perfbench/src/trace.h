#pragma once
// Benchmark-side tracing: spans recorded around the calls the workloads
// make into each product layer.
//
// A span has a name ("<layer>.<what>"), start, end, parent span and
// request id.  Spans stay in memory and are written out at the end as
// Chrome trace-event JSON.  A layer's self time is the summed duration of
// its spans minus the part of each interval its child spans cover.
// Disabled tracing costs one branch per scope, which is what the untraced
// (end-to-end) runs pay.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< request / operation id
  int tid = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread, child of that thread's innermost
  /// open span.  Returns 0 (and records nothing) when disabled.
  std::uint64_t open(std::string_view name, std::uint64_t req);
  void close(std::uint64_t id);

  /// Records a finished span with explicit timestamps (for intervals seen
  /// from outside, such as the time between two server events); `parent`
  /// 0 makes it a root.
  std::uint64_t record(std::string_view name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t req);

  [[nodiscard]] std::vector<Span> spans() const;
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> done_;  ///< guarded by mu_
};

/// RAII span around one call into a layer.
class Scope {
 public:
  explicit Scope(std::string_view name, std::uint64_t req = 0)
      : id_{Tracer::instance().enabled() ? Tracer::instance().open(name, req)
                                         : 0} {}
  ~Scope() {
    if (id_ != 0) Tracer::instance().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint64_t id_;
};

struct LayerSelf {
  std::string layer;  ///< span-name prefix before the first '.'
  std::uint64_t spans = 0;
  double self_s = 0.0;
};

/// Per-layer self time, largest first.
[[nodiscard]] std::vector<LayerSelf> layer_self_times(
    const std::vector<Span>& spans);

/// Writes Chrome trace-event JSON; returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

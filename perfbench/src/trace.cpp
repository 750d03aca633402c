#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "bench.h"

namespace perfbench {
namespace {

struct OpenSpan {
  std::uint64_t id;
  std::string name;
  std::int64_t start_ns;
  std::uint64_t parent;
  std::uint64_t req;
};

thread_local std::vector<OpenSpan> t_stack;

int thread_number() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_end = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cur_end);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cur_end = e;
    }
  }
  return total;
}

std::vector<double> self_ns_per_span(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    if (it != children.end()) dur -= covered_ns(it->second, s.start_ns, s.end_ns);
    self[i] = static_cast<double>(std::max<std::int64_t>(dur, 0));
  }
  return self;
}

void json_escape(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::open(std::string_view name, std::uint64_t req) {
  if (!enabled()) return 0;
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t parent = t_stack.empty() ? 0 : t_stack.back().id;
  t_stack.push_back({id, std::string{name}, now_ns(), parent, req});
  return id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t end = now_ns();
  if (t_stack.empty() || t_stack.back().id != id) return;
  OpenSpan open = std::move(t_stack.back());
  t_stack.pop_back();
  Span done{std::move(open.name), open.start_ns, end, id,
            open.parent, open.req, thread_number()};
  std::lock_guard lock{mu_};
  done_.push_back(std::move(done));
}

std::uint64_t Tracer::record(std::string_view name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t req) {
  if (!enabled()) return 0;
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Span done{std::string{name}, start_ns, end_ns, id, parent, req,
            thread_number()};
  std::lock_guard lock{mu_};
  done_.push_back(std::move(done));
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock{mu_};
  return done_;
}

void Tracer::clear() {
  std::lock_guard lock{mu_};
  done_.clear();
}

std::vector<LayerSelf> layer_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_ns_per_span(spans);
  std::map<std::string, LayerSelf> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerSelf& row = by_layer[layer_of(spans[i].name)];
    row.layer = layer_of(spans[i].name);
    row.spans += 1;
    row.self_s += self[i] * 1e-9;
  }
  std::vector<LayerSelf> out;
  for (auto& [name, row] : by_layer) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerSelf& a, const LayerSelf& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fputs(i == 0 ? "\n" : ",\n", f);
    std::fputs("{\"name\":\"", f);
    json_escape(f, s.name);
    std::fputs("\",\"cat\":\"", f);
    json_escape(f, layer_of(s.name));
    std::fprintf(f,
                 "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"req\":%llu}}",
                 s.tid, static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

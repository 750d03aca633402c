// serve_mixed_tcp: a closed loop of host-thread-count TCP connections
// against an in-process serve::Server::serve_tcp.  The mix: small
// campaigns over a few repeated algorithms (stream-cache hits), lint of
// fresh seed-generated march DSL (verdict-cache misses) and repeats of it
// (hits), demo-chip soc requests, and 16 MiB memtests (LLC-resident).  The
// only workload that exercises serve (parse -> queue -> execute -> emit)
// and lint.  The proportions are assumed, not measured: see
// perfbench/README.md, "Workloads".

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "backend/memtest.h"
#include "common/json.h"
#include "gen.h"
#include "lint/diagnostics.h"
#include "lint/driver.h"
#include "march/campaign.h"
#include "march/coverage.h"
#include "serve/server.h"
#include "soc/chip.h"
#include "soc/scheduler.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace json = pmbist::common::json;
namespace mr = pmbist::march;

enum class Kind { Campaign, Soc, Memtest, LintNew, LintRepeat };
constexpr const char* kKindName[] = {"campaign", "soc", "memtest", "lint", "lint"};
constexpr int kCampaignAlgorithms = 4;
constexpr int kCampaignSamples = 64;
constexpr pmbist::memsim::MemoryGeometry kCampaignGeometry{
    .address_bits = 8, .word_bits = 1, .num_ports = 1};
/// One mix cycle, shuffled per cycle: bench_serve's 2:1 campaign:lint
/// ratio, half of the lints repeating the connection's latest fresh one,
/// plus one soc request.  Only the first connection adds a memtest, so at
/// most one 16 MiB buffer is mapped at a time and peak memory does not
/// depend on how the clients interleave.
std::vector<Kind> mix_cycle(bool with_memtest) {
  std::vector<Kind> v{Kind::Campaign, Kind::Campaign, Kind::Campaign, Kind::Campaign,
                      Kind::LintNew,  Kind::LintRepeat, Kind::Soc};
  if (with_memtest) v.push_back(Kind::Memtest);
  return v;
}

struct Record {
  Kind kind = Kind::LintNew;
  /// `first` is the first progress event; a request that sends none (lint)
  /// has first == accepted, so all of accepted -> done counts as execute.
  std::int64_t sent = 0, accepted = 0, first = 0, done = 0;
  /// The terminal event was a result equal to the first result this
  /// client saw for the same request body.
  bool ok = false;
};

/// The first result a client saw per distinct request body (the request
/// JSON minus its id), checked against the direct engine output after the
/// loop; later results for the body are compared to it as they arrive, so
/// memory stays bounded by the distinct bodies.
struct FirstResult {
  Kind kind = Kind::LintNew;
  int exit = -1;
  std::string payload;
  std::uint64_t uses = 0;
};
using FirstResults = std::map<std::string, FirstResult>;

std::string str(const std::string& s) { return json::Value::string(s).dump(); }

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Next event line; false on EOF.
  bool read_line(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }
  void half_close() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// A running server plus its connected clients.
struct Rig {
  std::unique_ptr<pmbist::serve::Server> server;
  std::thread thread;
  std::vector<std::unique_ptr<Connection>> conns;

  void start(int sessions, int clients) {
    server = std::make_unique<pmbist::serve::Server>(
        pmbist::serve::ServerOptions{.sessions = sessions});
    auto bound = std::make_shared<std::promise<int>>();
    auto port = bound->get_future();
    thread = std::thread([this, bound] {
      const int rc = server->serve_tcp(0, [&bound](int p) { bound->set_value(p); });
      if (rc != 0) bound->set_value(-1);
    });
    const int p = port.get();
    if (p < 0) throw std::runtime_error("serve_tcp failed to listen");
    for (int c = 0; c < clients; ++c) conns.push_back(std::make_unique<Connection>(p));
  }
  void stop() {
    for (auto& c : conns) c->half_close();
    conns.clear();
    if (server) server->shutdown();
    if (thread.joinable()) thread.join();
    server.reset();
  }
  ~Rig() { stop(); }
};

struct Inputs {
  std::vector<std::string> campaign_algs;
  std::string chip;
};

std::string body_of(Kind kind, Rng& rng, const Inputs& in, std::string& last_lint) {
  switch (kind) {
    case Kind::Campaign:
      return "\"kind\":\"campaign\",\"algorithm\":" +
             str(in.campaign_algs[rng.below(kCampaignAlgorithms)]) +
             ",\"addr_bits\":" + std::to_string(kCampaignGeometry.address_bits) +
             ",\"samples\":" + std::to_string(kCampaignSamples) +
             ",\"seed\":" + std::to_string(1 + rng.below(2)) + ",\"jobs\":1}";
    case Kind::Soc:
      return "\"kind\":\"soc\",\"chip\":" + str(in.chip) + ",\"jobs\":1}";
    case Kind::Memtest:
      return "\"kind\":\"memtest\",\"algorithm\":\"March C\",\"size_mb\":16,"
             "\"backgrounds\":1,\"jobs\":1}";
    case Kind::LintRepeat:
      if (!last_lint.empty()) return "\"kind\":\"lint\",\"input\":" + str(last_lint) + "}";
      [[fallthrough]];
    case Kind::LintNew:
      last_lint = random_march_dsl(rng, 8 + static_cast<int>(rng.below(5)));
      return "\"kind\":\"lint\",\"input\":" + str(last_lint) + "}";
  }
  return {};
}

/// One closed-loop client: request, wait for its terminal event, repeat
/// until the deadline.
void client_loop(Connection& conn, int c, std::uint64_t seed, const Inputs& in,
                 std::int64_t deadline, std::vector<Record>& out,
                 FirstResults& firsts) {
  Rng rng{seed * 1000003u + static_cast<std::uint64_t>(c)};
  std::string last_lint;
  std::vector<Kind> cycle = mix_cycle(c == 0);
  std::size_t slot = cycle.size();
  std::string line;
  for (std::uint64_t n = 0; now_ns() < deadline; ++n) {
    if (slot == cycle.size()) {
      rng.shuffle(cycle);
      slot = 0;
    }
    Record rec;
    rec.kind = cycle[slot++];
    std::string body = body_of(rec.kind, rng, in, last_lint);
    std::string request = "{\"id\":\"c";
    request += std::to_string(c);
    request += '-';
    request += std::to_string(n);
    request += "\",";
    request += body;
    request += '\n';
    rec.sent = now_ns();
    if (!conn.send_line(request)) break;
    while (conn.read_line(line)) {
      const std::int64_t t = now_ns();
      const json::Value ev = json::Value::parse(line);
      const std::string& event = ev.find("event")->as_string();
      if (event == "accepted") {
        rec.accepted = t;
        continue;
      }
      if (event == "progress") {
        if (rec.first == 0) rec.first = t;
        continue;
      }
      rec.done = t;
      if (event == "result") {
        const int exit = static_cast<int>(ev.find("exit")->as_i64());
        const std::string& payload = ev.find("payload")->as_string();
        auto [it, inserted] =
            firsts.try_emplace(std::move(body), FirstResult{rec.kind, exit, payload, 0});
        ++it->second.uses;
        rec.ok = inserted || (it->second.exit == exit && it->second.payload == payload);
      }
      break;
    }
    const bool lost = rec.done == 0;  // counted as a failed request
    if (lost) rec.done = now_ns();
    if (rec.accepted == 0) rec.accepted = rec.done;
    if (rec.first == 0) rec.first = rec.accepted;
    out.push_back(std::move(rec));
    if (lost) break;
  }
}

/// The expected (exit, payload) of a request, computed by calling the
/// product's engines and formatters directly.
std::pair<int, std::string> direct(Kind kind, const std::string& body) {
  const json::Value req = json::Value::parse("{" + body);
  switch (kind) {
    case Kind::Campaign: {
      const std::vector<mr::MarchAlgorithm> algs{
          pmbist::soc::resolve_algorithm(req.find("algorithm")->as_string())};
      const auto& classes = pmbist::memsim::all_fault_classes();
      return {0, mr::format_coverage_table(
                     mr::coverage_matrix(algs, classes, kCampaignGeometry,
                                         {.seed = req.find("seed")->as_u64(),
                                          .max_instances_per_class = kCampaignSamples,
                                          .jobs = 1}),
                     classes)};
    }
    case Kind::Soc: {
      const auto chip = pmbist::soc::parse_chip(req.find("chip")->as_string());
      const auto res = pmbist::soc::run_soc(chip.description, chip.plan, {.jobs = 1});
      return {res.all_healthy() ? 0 : 1,
              pmbist::soc::format_soc_report(chip.description, chip.plan, res)};
    }
    case Kind::Memtest: {
      pmbist::backend::MemtestOptions mopts;
      mopts.size_bytes = 16ull << 20;
      mopts.backgrounds = 1;
      mopts.jobs = 1;
      const auto rep =
          pmbist::backend::run_memtest(pmbist::soc::resolve_algorithm("March C"), mopts);
      return {rep.passed() ? 0 : 1, pmbist::backend::format_memtest_report(rep)};
    }
    case Kind::LintNew:
    case Kind::LintRepeat: {
      const std::string input = req.find("input")->as_string();
      const auto rep = pmbist::lint::lint_text(input, "input", {});
      return {rep.has_errors() ? 1 : 0, pmbist::lint::format_cli(rep, "input", false)};
    }
  }
  return {-1, {}};
}

double hit_rate(const json::Value& stats, const char* cache) {
  const json::Value* c = stats.find(cache);
  const double hits = static_cast<double>(c->find("hits")->as_u64());
  const double misses = static_cast<double>(c->find("misses")->as_u64());
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

Result run_serve_mixed_tcp(const Options& opt) {
  Result r;
  const int clients = host_threads();

  Inputs in;
  Rng rng{opt.seed ^ 0x5E7Eull};
  for (int a = 0; a < kCampaignAlgorithms; ++a) in.campaign_algs.push_back(random_march_dsl(rng, 10));
  in.chip = pmbist::soc::to_chip_text(pmbist::soc::demo_soc(), pmbist::soc::demo_plan());

  // Set-up: server start, listen, and every client connected (the
  // previous rig's teardown is not part of it).
  Rig rig;
  std::vector<double> starts;
  for (int k = 0; k < 101; ++k) {
    rig.stop();
    const std::int64_t t0 = now_ns();
    rig.start(clients, clients);
    starts.push_back(seconds_between(t0, now_ns()));
  }
  print_distribution("setup", starts);
  r.add("setup_s", fastest(starts), "s");

  std::vector<Record> all;
  std::vector<FirstResults> firsts(static_cast<std::size_t>(clients));
  const auto run_loop = [&](double seconds, std::uint64_t seed) {
    std::vector<std::vector<Record>> per(static_cast<std::size_t>(clients));
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(*rig.conns[static_cast<std::size_t>(c)], c,
                    seed, in, deadline, per[static_cast<std::size_t>(c)],
                    firsts[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = seconds_between(t0, now_ns());
    std::vector<Record> recs;
    for (auto& v : per) {
      for (Record& rec : v) recs.push_back(std::move(rec));
    }
    return std::pair{wall, std::move(recs)};
  };

  /// Seconds from `from` to `to` of the records `pick` selects.
  const auto spans_s = [](const std::vector<Record>& recs, auto&& pick,
                          std::int64_t Record::*from, std::int64_t Record::*to) {
    std::vector<double> v;
    for (const Record& rec : recs) {
      if (pick(rec)) v.push_back(seconds_between(rec.*from, rec.*to));
    }
    return v;
  };
  const auto any = [](const Record&) { return true; };
  const auto of_kind = [](Kind k) {
    const bool lint = k == Kind::LintNew || k == Kind::LintRepeat;
    return [k, lint](const Record& x) {
      return x.kind == k ||
             (lint && (x.kind == Kind::LintNew || x.kind == Kind::LintRepeat));
    };
  };

  // op_ms is the mean latency, not the median: a request whose work is
  // shorter than the ~40 ms TCP stall (README, "Findings") reads the
  // stall, so the median sits on it whatever the engines cost, while the
  // mean also moves with the requests that outlast it.
  const auto e2e = [&](double wall, const std::vector<Record>& recs) {
    const std::vector<double> lat = spans_s(recs, any, &Record::sent, &Record::done);
    for (const Kind k : {Kind::Campaign, Kind::Soc, Kind::Memtest, Kind::LintNew}) {
      print_distribution((std::string{"latency "} + kKindName[static_cast<int>(k)]).c_str(),
                         spans_s(recs, of_kind(k), &Record::sent, &Record::done));
    }
    r.add("op_ms", mean(lat) * 1e3, "ms");
    r.add("work_per_s", static_cast<double>(recs.size()) / wall, "1/s");
    r.add("serve_rps", static_cast<double>(recs.size()) / wall, "1/s");
    r.add("serve_p50_ms", median(lat) * 1e3, "ms");
    r.add("serve_p99_ms", quantile(lat, 0.99) * 1e3, "ms");
    r.add("serve.samples", static_cast<double>(lat.size()), "count");
    return mean(lat);
  };

  auto [wall, recs] = run_loop(opt.seconds, opt.seed);
  const double plain_mean_s = e2e(wall, recs);
  all = std::move(recs);
  if (opt.trace) {
    Tracer& tracer = Tracer::instance();
    tracer.set_enabled(true);
    // A second request stream, so its fresh lint inputs miss the cache.
    auto [twall, trecs] = run_loop(opt.seconds, opt.seed ^ 0x7ACEull);
    // Spans seen from the client: send -> accepted (accept), accepted ->
    // first progress event (queue), first progress -> terminal (execute,
    // named after the layer the request kind runs in).  A request without
    // progress events (lint) has no queue span: its whole accepted ->
    // terminal time is execute.
    static const char* const kExecSpan[] = {"march.serve_campaign", "soc.serve_soc",
                                            "backend.serve_memtest", "lint.serve_lint",
                                            "lint.serve_lint"};
    std::uint64_t req = 0;
    for (const Record& rec : trecs) {
      const std::uint64_t root = tracer.record("serve.request", rec.sent, rec.done, 0, ++req);
      tracer.record("serve.accept", rec.sent, rec.accepted, root, req);
      if (rec.first > rec.accepted) {
        tracer.record("serve.queue", rec.accepted, rec.first, root, req);
      }
      tracer.record(kExecSpan[static_cast<int>(rec.kind)], rec.first, rec.done, root, req);
    }
    tracer.set_enabled(false);

    const auto med_ms = [&](auto&& pick, std::int64_t Record::*from, std::int64_t Record::*to) {
      return median(spans_s(trecs, pick, from, to)) * 1e3;
    };
    r.add("serve.accept_ms", med_ms(any, &Record::sent, &Record::accepted), "ms");
    r.add("serve.queue_ms",
          med_ms([](const Record& x) { return x.first > x.accepted; }, &Record::accepted,
                 &Record::first),
          "ms");
    for (const Kind k : {Kind::Campaign, Kind::Soc, Kind::Memtest, Kind::LintNew}) {
      r.add(std::string{"serve.exec_ms."} + kKindName[static_cast<int>(k)],
            med_ms(of_kind(k), &Record::first, &Record::done), "ms");
    }
    finish_trace(r, opt, twall, clients, plain_mean_s,
                 mean(spans_s(trecs, any, &Record::sent, &Record::done)));
    for (Record& rec : trecs) all.push_back(std::move(rec));

    // Layer splits from outside: the march layer of the mix's campaign
    // requests, and soc + field on the seed-generated chip.
    measure_march_layer(r, in.campaign_algs, kCampaignGeometry, kCampaignSamples, {1, 2},
                        opt.seconds / 10);
    measure_soc_field_layer(r, opt.seed, opt.seconds / 5);
  }

  // Cache effectiveness, from the server's own stats request.
  {
    Connection& conn = *rig.conns.front();
    std::string line;
    const bool ok = conn.send_line("{\"id\":\"stats\",\"kind\":\"stats\"}\n") &&
                    conn.read_line(line);
    r.check(ok, "serve: stats request answered");
    if (ok) {
      const json::Value ev = json::Value::parse(line);
      const json::Value stats = json::Value::parse(ev.find("payload")->as_string());
      r.add("serve.stream_cache.hit_rate", hit_rate(stats, "streams"), "ratio");
      r.add("serve.lint_cache.hit_rate", hit_rate(stats, "lints"), "ratio");
    }
  }
  rig.stop();

  // Every payload byte-identical to the direct formatter output: repeats
  // were compared to their body's first result in the loop, and each first
  // result is compared to the direct engine + formatter output here.
  std::map<std::string, std::pair<int, std::string>> expected;
  std::uint64_t mismatched = 0;
  for (const Record& rec : all) {
    r.check(rec.ok, "serve: request answered with the same result as its repeats");
  }
  for (const FirstResults& client : firsts) {
    for (const auto& [body, first] : client) {
      auto it = expected.find(body);
      if (it == expected.end()) it = expected.emplace(body, direct(first.kind, body)).first;
      const bool same = first.exit == it->second.first && first.payload == it->second.second;
      if (!same) mismatched += first.uses;
      r.check(same, "serve: result payload equals the direct formatter output");
    }
  }
  std::printf("serve: %zu requests, %zu distinct, %llu with a mismatched payload\n",
              all.size(), expected.size(), static_cast<unsigned long long>(mismatched));
  return r;
}

}  // namespace perfbench

#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/cancel.h"
#include "common/json.h"
#include "lint/diagnostics.h"
#include "serve/executor.h"

namespace pmbist::serve {
namespace {

namespace json = common::json;

json::Value cache_stats_json(std::uint64_t hits, std::uint64_t misses,
                             std::uint64_t evictions) {
  json::Value obj = json::Value::object();
  obj.set("hits", json::Value::number(hits));
  obj.set("misses", json::Value::number(misses));
  obj.set("evictions", json::Value::number(evictions));
  return obj;
}

}  // namespace

struct Server::TcpState {
  std::atomic<bool> stopping{false};
  std::atomic<int> listen_fd{-1};
  std::mutex mu;
  std::condition_variable reader_done;
  /// Reader thread of each open connection, by client fd.  A reader takes
  /// its entry out before it closes the fd, so shutdown() only ever sees
  /// fds that are still open.
  std::map<int, std::thread> readers;
  /// The reader that finished last; the next one to finish (or serve_tcp
  /// on its way out) joins it.
  std::thread finished;
};

Server::Server(ServerOptions options)
    : options_{options},
      streams_{options.stream_cache_bytes},
      lints_{options.lint_cache_entries},
      tcp_{std::make_unique<TcpState>()},
      pool_{std::make_unique<common::ThreadPool>(
          std::max(1, options.sessions))} {}

Server::~Server() {
  shutdown();
  // ThreadPool's destructor drains queued sessions before joining; every
  // member they touch outlives pool_ (declaration order).
  pool_.reset();
}

void Server::emit(const Sink& sink, const std::string& line) {
  std::lock_guard lock{emit_mu_};
  sink(line);
}

std::optional<std::string> Server::post(const std::string& line, Sink sink) {
  return submit(line, std::move(sink), nullptr);
}

std::optional<std::string> Server::submit(const std::string& line, Sink sink,
                                          std::size_t* in_flight) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    emit(sink, event_error("", e.what()));
    return std::nullopt;
  }

  if (req.kind == RequestKind::Cancel) {
    std::shared_ptr<Session> target;
    {
      std::lock_guard lock{registry_mu_};
      if (const auto it = sessions_.find(req.target); it != sessions_.end())
        target = it->second;
    }
    if (target == nullptr) {
      emit(sink, event_error(req.id, "no active session '" + req.target + "'"));
    } else {
      target->cancel.store(true, std::memory_order_relaxed);
      emit(sink, event_result(req.id, 0, "cancelling '" + req.target + "'"));
    }
    return std::nullopt;
  }

  if (req.kind == RequestKind::Stats) {
    emit(sink, event_result(req.id, 0, stats_payload()));
    return std::nullopt;
  }

  auto session = std::make_shared<Session>();
  session->id = req.id;
  {
    std::lock_guard lock{registry_mu_};
    if (sessions_.contains(req.id)) {
      emit(sink, event_error(req.id,
                             "session '" + req.id + "' is already active"));
      return std::nullopt;
    }
    sessions_.emplace(req.id, session);
    session->in_flight = in_flight;
    if (in_flight != nullptr) ++*in_flight;
  }
  // `accepted` goes out before post() returns, so a client always sees it
  // ahead of any progress/terminal event of the same request.
  emit(sink, event_accepted(req.id));
  std::string id = req.id;
  pool_->submit([this, req = std::move(req), session, sink = std::move(sink)] {
    run_session(req, session, sink);
  });
  return id;
}

void Server::run_session(const Request& req,
                         const std::shared_ptr<Session>& session,
                         const Sink& sink) {
  // The server's --certify covers soc/field schedules; a lint request's
  // `certify` is its own field.
  Request run = req;
  if (req.kind != RequestKind::Lint) run.certify = options_.certify;
  const Hooks hooks{
      .cancel = &session->cancel,
      .progress = [this, &req, &sink](int done, int total) {
        emit(sink, event_progress(req.id, done, total));
      },
      .streams = &streams_,
      .lints = &lints_};
  try {
    const Outcome out = run_request(run, hooks);
    // A certificate violation fails the whole request, never a
    // corrupted-but-replied result.
    if (out.certificate && out.certificate->has_errors())
      throw std::runtime_error("schedule certificate failed (" +
                               std::string(to_string(req.kind)) + "):\n" +
                               lint::format_text(*out.certificate));
    emit(sink, event_result(req.id, out.exit_code, out.payload));
  } catch (const common::Cancelled&) {
    emit(sink, event_cancelled(req.id));
  } catch (const std::exception& e) {
    emit(sink, event_error(req.id, e.what()));
  }
  {
    std::lock_guard lock{registry_mu_};
    sessions_.erase(req.id);
    ++completed_;
    if (session->in_flight != nullptr) --*session->in_flight;
  }
  registry_cv_.notify_all();
}

std::string Server::stats_payload() const {
  const Stats s = stats();
  json::Value obj = json::Value::object();
  json::Value streams = cache_stats_json(s.streams.hits, s.streams.misses,
                                         s.streams.evictions);
  streams.set("bytes", json::Value::number(s.streams.bytes));
  obj.set("streams", std::move(streams));
  json::Value lints = cache_stats_json(s.lints.hits, s.lints.misses,
                                       s.lints.evictions);
  lints.set("entries", json::Value::number(s.lints.entries));
  obj.set("lints", std::move(lints));
  obj.set("active", json::Value::number(static_cast<std::int64_t>(s.active)));
  obj.set("completed", json::Value::number(s.completed));
  return obj.dump();
}

Server::Stats Server::stats() const {
  Stats out;
  out.streams = streams_.stats();
  out.lints = lints_.stats();
  std::lock_guard lock{registry_mu_};
  out.active = static_cast<int>(sessions_.size());
  out.completed = completed_;
  return out;
}

march::StreamCache& Server::stream_cache() { return streams_; }

void Server::wait_finished(const std::string& id) {
  std::unique_lock lock{registry_mu_};
  registry_cv_.wait(lock, [&] { return !sessions_.contains(id); });
}

std::vector<std::string> Server::call(const std::string& line) {
  std::vector<std::string> events;
  // The emit mutex serializes sink invocations, so no extra locking here.
  Sink sink = [&events](const std::string& s) { events.push_back(s); };
  if (const auto id = post(line, std::move(sink))) wait_finished(*id);
  return events;
}

void Server::run_pipe(std::istream& in, std::ostream& out,
                      const std::string& payload_dir) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    for (const std::string& event : call(line)) {
      out << event << '\n';
      if (payload_dir.empty()) continue;
      // Mirror result payloads to files (see header).  Our own events
      // always re-parse; guard anyway so a write problem cannot take the
      // whole batch down.
      try {
        const json::Value doc = json::Value::parse(event);
        const json::Value* kind = doc.find("event");
        const json::Value* payload = doc.find("payload");
        const json::Value* id = doc.find("id");
        if (kind != nullptr && kind->is_string() &&
            kind->as_string() == "result" && payload != nullptr &&
            id != nullptr) {
          std::ofstream file{payload_dir + "/" + id->as_string() + ".out",
                             std::ios::binary | std::ios::trunc};
          file << payload->as_string();
        }
      } catch (const json::JsonError&) {
      }
    }
    out.flush();
  }
}

namespace {

/// Full-buffer send; false on a broken connection (client went away —
/// the session still completes, its events are dropped).
bool send_all(int fd, const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int Server::serve_tcp(int port, const std::function<void(int)>& ready,
                      std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
    return -1;
  };

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return fail("bind");
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return fail("listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  tcp_->listen_fd.store(fd);
  if (ready) ready(ntohs(addr.sin_port));

  while (!tcp_->stopping.load()) {
    const int cfd = ::accept(fd, nullptr, nullptr);
    if (cfd < 0) {
      if (tcp_->stopping.load()) break;
      continue;
    }
    std::lock_guard lock{tcp_->mu};
    tcp_->readers.emplace(cfd, std::thread{[this, cfd] {
      Sink sink = [cfd](const std::string& line) { send_all(cfd, line); };
      std::size_t in_flight = 0;  ///< sessions of this connection
      std::string pending;
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(cfd, buf, sizeof buf, 0);
        if (n <= 0) break;
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
          const std::string line = pending.substr(0, nl);
          pending.erase(0, nl + 1);
          if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
          submit(line, sink, &in_flight);
        }
      }
      // Drain this connection's sessions before closing the socket, so a
      // client that half-closes after its last request still receives
      // every terminal event.
      {
        std::unique_lock lock{registry_mu_};
        registry_cv_.wait(lock, [&] { return in_flight == 0; });
      }
      std::thread previous;
      {
        std::lock_guard tcp_lock{tcp_->mu};
        previous = std::exchange(tcp_->finished,
                                 std::move(tcp_->readers.extract(cfd).mapped()));
      }
      tcp_->reader_done.notify_all();
      ::close(cfd);
      if (previous.joinable()) previous.join();
    }});
  }

  std::thread last;
  {
    std::unique_lock lock{tcp_->mu};
    for (const auto& [cfd, reader] : tcp_->readers) ::shutdown(cfd, SHUT_RD);
    tcp_->reader_done.wait(lock, [&] { return tcp_->readers.empty(); });
    last = std::move(tcp_->finished);
  }
  if (last.joinable()) last.join();
  ::close(fd);
  tcp_->listen_fd.store(-1);
  return 0;
}

void Server::shutdown() {
  tcp_->stopping.store(true);
  const int fd = tcp_->listen_fd.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace pmbist::serve

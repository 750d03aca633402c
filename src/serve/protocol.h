#pragma once
// Wire protocol of `pmbist serve` (docs/SERVE.md).
//
// Requests arrive as newline-delimited JSON objects; every request names a
// client-chosen `id` and a `kind`.  The five work kinds mirror the one-shot
// CLI commands (campaign ~ `pmbist coverage`, soc ~ `pmbist soc`, field ~
// `pmbist field`, memtest ~ `pmbist memtest`, lint ~ `pmbist lint`) with
// all file payloads inlined;
// `cancel` aborts a running session between shards and `stats` reports the
// server's cache counters.
//
// Responses stream back as JSON events, one per line:
//
//   {"event":"accepted","id":...}             request parsed, session queued
//   {"event":"progress","id":...,"done":D,"total":T}
//   {"event":"result","id":...,"exit":E,"payload":"..."}
//   {"event":"error","id":...,"message":"..."}
//   {"event":"cancelled","id":...}
//
// `payload` is byte-identical to the stdout of the equivalent one-shot CLI
// invocation (same jobs/kernel) — the serve/CLI equivalence contract — and
// `exit` is the CLI's unified exit code (0 ok, 1 check failed).  Progress
// events carry counts only (never memory or class names), so an event
// stream from a single-session server is byte-stable for any jobs value.
//
// parse_request is the hardened edge: malformed or truncated JSON, wrong
// types, unknown fields and unknown kinds all throw ProtocolError (callers
// turn it into an `error` event); it never crashes on hostile input
// (fuzzed by tests/test_serve.cpp).
//
// The request schema.  Each kind is described once, as a table of Rows
// (rows_of): wire name, CLI flag, type, range, default and help text.
// Four consumers read the tables and nothing else: parse_request (JSON),
// set_text (CLI flags and every default), request_line (what `pmbist
// submit` sends) and the CLI's --help text.  A work command of the CLI
// takes exactly its kind's rows, so the CLI, serve and submit cannot
// drift apart.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "backend/backend.h"
#include "march/kernel.h"
#include "memsim/fault_model.h"
#include "memsim/memory.h"

namespace pmbist::serve {

/// Raised for every malformed request line.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RequestKind : std::uint8_t {
  Campaign,  ///< fault-simulation coverage matrix for one algorithm
  Soc,       ///< whole-chip scheduled BIST from an inline chip payload
  Field,     ///< in-field windowed BIST from inline chip + profile payloads
  Memtest,   ///< host-RAM march sweep (~ pmbist memtest)
  Lint,      ///< static verification of an inline input
  Cancel,    ///< abort a running session by id
  Stats,     ///< cache hit/miss/eviction counters
};

[[nodiscard]] std::string_view to_string(RequestKind kind);

/// One parsed request.  parse_request fills every field of the kind from
/// its table (rows_of), defaults included; the CLI flag of each field
/// shares that row, so a minimal request means the same thing as a bare
/// CLI invocation.
struct Request {
  std::string id;
  RequestKind kind = RequestKind::Stats;

  // Shared engine options (campaign/soc/field).
  int jobs = 0;  ///< 0 = hardware concurrency

  // campaign (~ pmbist coverage)
  std::string algorithm;  ///< library name or DSL text
  memsim::MemoryGeometry geometry{.address_bits = 8, .word_bits = 1,
                                  .num_ports = 1};
  int samples = 64;
  std::uint64_t seed = 1;
  march::CampaignKernel kernel = march::CampaignKernel::Auto;
  std::vector<std::string> fault_classes;  ///< empty = all classes

  // soc / field (~ pmbist soc / pmbist field); `chip` and `profile` are
  // inline payloads (chip accepts the text format or the JSON mirror).
  std::string chip;
  std::string profile;
  double power_budget = -1.0;  ///< < 0 = keep the chip payload's budget
  std::size_t max_failures = 1024;

  // memtest (~ pmbist memtest); reuses `algorithm` (default March C) and
  // `jobs`.  `size_mb` bounds the per-request mapping a client may ask of
  // the serving host.
  std::uint64_t size_mb = 256;
  int passes = 1;
  int backgrounds = 0;  ///< 0 = all standard backgrounds
  backend::BackendKind backend = backend::BackendKind::HostRam;

  // lint (~ pmbist lint); all payloads inline.
  std::string input;
  std::string unit = "input";
  bool lint_json = false;
  int storage_depth = 32;
  int buffer_depth = 16;
  std::string against;
  bool certify = false;  ///< lint: run the schedule certificate checker
  // lint reuses `chip` for the profile-vs-chip cross-check payload and
  // `profile` for field-schedule certification.

  // cancel
  std::string target;  ///< id of the session to abort
};

/// Parses one request line.  Throws ProtocolError on anything malformed;
/// never crashes on hostile input.
[[nodiscard]] Request parse_request(const std::string& line);

/// The inverse of parse_request: the request line that parses back to
/// `req` (every wire field of its kind, in table order).
[[nodiscard]] std::string request_line(const Request& req);

/// The kind whose to_string is `name`.
[[nodiscard]] std::optional<RequestKind> kind_by_name(std::string_view name);

/// A campaign's fault classes: the `fault_classes` names in order, or
/// every class when empty.  Throws std::runtime_error on an unknown name.
[[nodiscard]] std::vector<memsim::FaultClass> fault_classes(
    const Request& req);

/// Values outside Request: those only CLI flags set (the wire never
/// carries them), and the kind name a line or `submit --req` gives.
struct CliValues {
  bool inject = false;        ///< memtest: flip one bit mid-run (self-test)
  bool huge_pages = false;    ///< memtest: try MAP_HUGETLB pages first
  bool fix = false;           ///< lint: rewrite the input file in place
  std::string emit_schedule;  ///< soc/field: write the schedule file here
  /// memtest --size in bytes: the wire's size_mb cannot say "below 1 MiB".
  std::uint64_t size_bytes = 0;
  // The own flags of the commands that are no request kind.
  std::string arch;         ///< assemble/run: controller architecture
  bool flat = false;        ///< assemble/run: no Repeat fold
  bool hex = false;         ///< assemble: print the portable hex image
  std::string program;      ///< run: hex microcode image to load
  int port = -1;            ///< serve/submit: TCP port (-1 = pipe mode)
  int sessions = 0;         ///< serve: concurrent session workers
  int cache_mb = 0;         ///< serve: op-stream cache budget in MiB
  std::string payload_dir;  ///< serve pipe mode: mirror payloads here
  std::string request;      ///< kind name: submit --req, a line's "kind"
};

/// Everything one CLI invocation or request line sets.
struct Invocation {
  Request req;
  CliValues cli;
};

/// A row's storage: the typed member it reads and writes.
template <class T>
using Get = T& (*)(Invocation&);
using Slot =
    std::variant<Get<int>, Get<std::uint64_t>, Get<double>, Get<bool>,
                 Get<std::string>, Get<std::vector<std::string>>,
                 Get<march::CampaignKernel>, Get<backend::BackendKind>>;

/// Slots of Request, Request::geometry and CliValues members.
template <auto M>
inline constexpr auto of_req = +[](Invocation& i) -> auto& { return i.req.*M; };
template <auto M>
inline constexpr auto of_geometry =
    +[](Invocation& i) -> auto& { return i.req.geometry.*M; };
template <auto M>
inline constexpr auto of_cli = +[](Invocation& i) -> auto& { return i.cli.*M; };

/// How CLI text becomes the value (the wire carries the value itself).
enum class Form : std::uint8_t {
  Text,          ///< the text as given
  File,          ///< a path: the file's contents
  PathOrInline,  ///< the file's contents when the text opens, else the text
  Input,         ///< PathOrInline whose path also becomes `unit`
  Size,          ///< BYTES[K|M|G]; whole MiB on the wire (size_mb)
};

/// One field of a request kind, or one flag of a CLI command.  A row
/// without a name is CLI-only (the wire never carries it); a row without
/// a flag that is not the positional is wire-only.
struct Row {
  std::string_view name{};  ///< wire field name
  std::string_view flag{};  ///< CLI flag
  Slot slot;
  bool positional = false;  ///< the CLI's positional argument instead
  Form form = Form::Text;
  /// Default as CLI text; "" keeps the member's initial value.
  std::string_view def{};
  std::uint64_t min = 0;  ///< integer rows: inclusive range
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  bool required = false;  ///< a non-empty string on the wire
  std::string_view meta = "N";  ///< value placeholder in --help ("FILE")
  std::string_view help{};
};

/// The table of a request kind, in wire order.
[[nodiscard]] std::span<const Row> rows_of(RequestKind kind);

/// Sets `row` from CLI text (after any file read its Form asks for).
/// Throws ProtocolError naming the flag when the text is out of type or
/// range.
void set_text(const Row& row, Invocation& inv, std::string_view text);

/// Event constructors: one complete JSON line each (no trailing newline),
/// built through the deterministic JSON writer so escaping is correct and
/// member order is fixed.
[[nodiscard]] std::string event_accepted(const std::string& id);
[[nodiscard]] std::string event_progress(const std::string& id, int done,
                                         int total);
[[nodiscard]] std::string event_result(const std::string& id, int exit_code,
                                       const std::string& payload);
[[nodiscard]] std::string event_error(const std::string& id,
                                      const std::string& message);
[[nodiscard]] std::string event_cancelled(const std::string& id);

}  // namespace pmbist::serve

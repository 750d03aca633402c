#include "serve/protocol.h"

#include <algorithm>

#include "backend/memtest.h"
#include "common/json.h"

namespace pmbist::serve {
namespace {

namespace json = common::json;

template <class... F>
struct Overload : F... {
  using F::operator()...;
};

[[noreturn]] void fail(const std::string& what) { throw ProtocolError(what); }

// ---------------------------------------------------------------------------
// The tables.  Rows shared by several kinds are spelled once.

using G = memsim::MemoryGeometry;
using R = Request;
using C = CliValues;

constexpr Row kJobs{.name = "jobs", .flag = "--jobs", .slot = of_req<&R::jobs>,
                    .def = "0", .max = 1024,
                    .help = "worker threads, 0 = all cores"};
constexpr Row kMaxFailures{
    .name = "max_failures", .flag = "--max-failures",
    .slot = of_req<&R::max_failures>, .def = "1024", .max = 1 << 24,
    .help = "failure-log capacity per session"};
constexpr Row kChip{.name = "chip", .flag = "--chip", .slot = of_req<&R::chip>,
                    .form = Form::File, .required = true, .meta = "FILE",
                    .help = "chip description (CLI default: a demo chip)"};
constexpr Row kCertifySchedule{
    .flag = "--certify", .slot = of_req<&R::certify>,
    .help = "re-verify the schedule with the certificate checker"};
constexpr Row kEmitSchedule{.flag = "--emit-schedule",
                            .slot = of_cli<&C::emit_schedule>,
                            .meta = "FILE", .help = "write the schedule"};
constexpr Row kScheduleBackend{
    .flag = "--backend", .slot = of_req<&R::backend>, .def = "sim",
    .meta = "sim|hostram",
    .help = "memory under test (hostram: fault-free chips only)"};

// Every request's own fields; the kind picks the table of the rest.
constexpr Row kId{.name = "id", .slot = of_req<&R::id>, .required = true};
constexpr Row kKind{.name = "kind", .slot = of_cli<&C::request>,
                    .required = true};

constexpr Row kCampaign[] = {
    {.name = "algorithm", .slot = of_req<&R::algorithm>, .positional = true,
     .required = true, .meta = "<algorithm|dsl>",
     .help = "library name or march DSL text"},
    {.name = "addr_bits", .flag = "--addr-bits",
     .slot = of_geometry<&G::address_bits>, .def = "8", .min = 1, .max = 20,
     .help = "address bits: 2^N words"},
    {.name = "word_bits", .flag = "--word-bits",
     .slot = of_geometry<&G::word_bits>, .def = "1", .min = 1, .max = 64,
     .help = "bits per word"},
    {.name = "ports", .flag = "--ports", .slot = of_geometry<&G::num_ports>,
     .def = "1", .min = 1, .max = 4, .help = "memory ports"},
    {.name = "samples", .flag = "--samples", .slot = of_req<&R::samples>,
     .def = "64", .min = 1, .max = 1 << 20, .help = "faults sampled per class"},
    {.name = "seed", .flag = "--seed", .slot = of_req<&R::seed>, .def = "1",
     .help = "fault-sampling seed"},
    kJobs,
    {.name = "kernel", .flag = "--kernel", .slot = of_req<&R::kernel>,
     .def = "auto", .meta = "scalar|packed|auto",
     .help = "campaign inner loop (same results)"},
    {.name = "classes", .flag = "--fault", .slot = of_req<&R::fault_classes>,
     .meta = "CLASS", .help = "only this fault class (SAF, TF, ..., DRDF)"},
};

constexpr Row kSoc[] = {
    kChip,
    kJobs,
    {.name = "power_budget", .flag = "--power-budget",
     .slot = of_req<&R::power_budget>, .meta = "W",
     .help = "override the chip's power budget"},
    kMaxFailures,
    kCertifySchedule,
    kEmitSchedule,
    kScheduleBackend,
};

constexpr Row kField[] = {
    kChip,
    {.name = "profile", .flag = "--profile", .slot = of_req<&R::profile>,
     .form = Form::File, .required = true, .meta = "FILE",
     .help = "mission profile (CLI default: a demo profile)"},
    kJobs,
    kMaxFailures,
    kCertifySchedule,
    kEmitSchedule,
    kScheduleBackend,
};

constexpr Row kMemtest[] = {
    {.name = "algorithm", .slot = of_req<&R::algorithm>,
     .positional = true, .def = "March C", .meta = "[<algorithm|dsl>]",
     .help = "march algorithm"},
    // 16 GiB cap: the engine's own geometry bound, restated here so hostile
    // requests fail at the protocol edge, before any mapping is attempted.
    {.name = "size_mb", .flag = "--size", .slot = of_req<&R::size_mb>,
     .form = Form::Size, .def = "256M", .min = 1, .max = 16 << 10,
     .meta = "BYTES", .help = "buffer size, K/M/G suffix (MiB on the wire)"},
    {.name = "passes", .flag = "--passes", .slot = of_req<&R::passes>,
     .def = "1", .min = 1, .max = 1 << 10, .help = "sweeps of the buffer"},
    {.name = "backgrounds", .flag = "--backgrounds",
     .slot = of_req<&R::backgrounds>, .def = "0", .max = 7,
     .help = "data backgrounds, 0 = all 7"},
    kJobs,
    {.name = "backend", .flag = "--backend", .slot = of_req<&R::backend>,
     .def = "hostram", .meta = "sim|hostram",
     .help = "host RAM, or the behavioral simulator"},
    kMaxFailures,
    {.flag = "--huge-pages", .slot = of_cli<&C::huge_pages>,
     .help = "try MAP_HUGETLB pages first (THP is on from 2 MiB anyway)"},
    {.flag = "--inject", .slot = of_cli<&C::inject>,
     .help = "flip one bit mid-run (must FAIL)"},
};

constexpr Row kLint[] = {
    {.name = "input", .slot = of_req<&R::input>, .positional = true,
     .form = Form::Input, .required = true, .meta = "<file|algorithm|dsl>",
     .help = "what to verify"},
    {.name = "unit", .slot = of_req<&R::unit>, .def = "input"},
    {.name = "json", .flag = "--json", .slot = of_req<&R::lint_json>,
     .help = "machine-readable diagnostics"},
    {.name = "storage_depth", .flag = "--storage-depth",
     .slot = of_req<&R::storage_depth>, .def = "32", .min = 1, .max = 1 << 16,
     .help = "microcode storage words"},
    {.name = "buffer_depth", .flag = "--buffer-depth",
     .slot = of_req<&R::buffer_depth>, .def = "16", .min = 1, .max = 1 << 16,
     .help = "pFSM buffer rows"},
    {.name = "against", .flag = "--against", .slot = of_req<&R::against>,
     .form = Form::PathOrInline, .meta = "SRC",
     .help = "prove a controller image realizes SRC"},
    {.name = "chip", .flag = "--chip", .slot = of_req<&R::chip>,
     .form = Form::File, .meta = "FILE",
     .help = "chip a profile or schedule is checked against"},
    {.name = "profile", .flag = "--profile", .slot = of_req<&R::profile>,
     .form = Form::File, .meta = "FILE",
     .help = "profile a field schedule is checked against"},
    {.name = "certify", .flag = "--certify", .slot = of_req<&R::certify>,
     .help = "chip/profile inputs: certify their schedule too"},
    {.flag = "--fix", .slot = of_cli<&C::fix>,
     .help = "rewrite the input file with the mechanical fixes"},
};

constexpr Row kCancel[] = {
    {.name = "target", .slot = of_req<&R::target>, .positional = true,
     .required = true, .meta = "<session-id>",
     .help = "id of the session to abort"},
};

/// Each kind's wire name and table, in RequestKind order.
struct Kind {
  std::string_view name;
  std::span<const Row> rows;
};
constexpr Kind kKinds[] = {{"campaign", kCampaign}, {"soc", kSoc},
                           {"field", kField},       {"memtest", kMemtest},
                           {"lint", kLint},         {"cancel", kCancel},
                           {"stats", {}}};
static_assert(std::size(kKinds) ==
              static_cast<std::size_t>(RequestKind::Stats) + 1);

// ---------------------------------------------------------------------------
// The typed reader every value goes through: wire fields as parsed, CLI
// text and defaults after set_text turns them into JSON values.  `subject`
// names the value in errors ("field 'x'" on the wire, the flag on the
// CLI).

std::uint64_t integer(const Row& row, const json::Value& v,
                      const std::string& subject) {
  std::uint64_t out = 0;
  try {
    out = v.as_u64();
  } catch (const json::JsonError&) {
    fail(subject + " must be a non-negative integer");
  }
  if (out > row.max)
    fail(subject + " out of range (max " + std::to_string(row.max) + ")");
  if (out < row.min)
    fail(subject + " must be >= " + std::to_string(row.min));
  return out;
}

std::string string_value(const Row& row, const json::Value& v,
                         const std::string& subject) {
  if (row.required && (!v.is_string() || v.as_string().empty()))
    fail(subject + " (non-empty string) is required");
  if (!v.is_string()) fail(subject + " must be a string");
  // An absent positional is an empty one: both take the default.
  if (row.positional && v.as_string().empty())
    return std::string(row.def);
  return v.as_string();
}

template <class E>
E named(std::optional<E> parsed, const char* what, const std::string& name) {
  if (!parsed) fail(std::string("unknown ") + what + " '" + name + "'");
  return *parsed;
}

void set_value(const Row& row, const json::Value& v, Invocation& inv,
               const std::string& subject) {
  auto name = [&] { return string_value(row, v, subject); };
  std::visit(
      Overload{
          [&](Get<int> get) {
            get(inv) = static_cast<int>(integer(row, v, subject));
          },
          [&](Get<std::uint64_t> get) { get(inv) = integer(row, v, subject); },
          [&](Get<double> get) {
            if (!v.is_number()) fail(subject + " must be a number");
            get(inv) = v.as_double();
          },
          [&](Get<bool> get) {
            if (!v.is_bool()) fail(subject + " must be a bool");
            get(inv) = v.as_bool();
          },
          [&](Get<std::string> get) { get(inv) = name(); },
          [&](Get<std::vector<std::string>> get) {
            if (!v.is_array()) fail(subject + " must be an array");
            std::vector<std::string> out;
            for (const auto& item : v.items()) {
              if (!item.is_string()) fail(subject + " must hold strings");
              out.push_back(item.as_string());
            }
            get(inv) = std::move(out);
          },
          [&](Get<march::CampaignKernel> get) {
            const std::string n = name();
            get(inv) = named(march::parse_kernel(n), "kernel", n);
          },
          [&](Get<backend::BackendKind> get) {
            const std::string n = name();
            get(inv) = named(backend::parse_backend(n), "backend", n);
          },
      },
      row.slot);
}

json::Value value_of(const Row& row, Invocation& inv) {
  using V = json::Value;
  return std::visit(
      Overload{
          [&](Get<int> get) { return V::number(std::int64_t{get(inv)}); },
          [&](Get<std::uint64_t> get) { return V::number(get(inv)); },
          [&](Get<double> get) { return V::number(get(inv)); },
          [&](Get<bool> get) { return V::boolean(get(inv)); },
          [&](Get<std::string> get) { return V::string(get(inv)); },
          [&](Get<std::vector<std::string>> get) {
            V out = V::array();
            for (const auto& item : get(inv)) out.push(V::string(item));
            return out;
          },
          [&](Get<march::CampaignKernel> get) {
            return V::string(std::string(march::kernel_name(get(inv))));
          },
          [&](Get<backend::BackendKind> get) {
            return V::string(std::string(backend::to_string(get(inv))));
          },
      },
      row.slot);
}

bool on_wire(const Row& row) { return !row.name.empty(); }

json::Value event_base(std::string_view event, const std::string& id) {
  json::Value obj = json::Value::object();
  obj.set("event", json::Value::string(std::string(event)));
  obj.set("id", json::Value::string(id));
  return obj;
}

}  // namespace

std::string_view to_string(RequestKind kind) {
  return kKinds[static_cast<std::size_t>(kind)].name;
}

std::optional<RequestKind> kind_by_name(std::string_view name) {
  for (std::size_t k = 0; k < std::size(kKinds); ++k)
    if (kKinds[k].name == name) return static_cast<RequestKind>(k);
  return std::nullopt;
}

std::span<const Row> rows_of(RequestKind kind) {
  return kKinds[static_cast<std::size_t>(kind)].rows;
}

void set_text(const Row& row, Invocation& inv, std::string_view text) {
  const std::string subject{row.flag.empty() ? row.meta : row.flag};
  if (row.form == Form::Size) {
    const auto bytes = backend::parse_size_bytes(text);
    if (!bytes || (*bytes >> 20) > row.max)
      fail(subject + " expects BYTES with an optional K/M/G suffix, up to " +
           std::to_string(row.max) + "M, not '" + std::string(text) + "'");
    inv.cli.size_bytes = *bytes;
    std::get<Get<std::uint64_t>>(row.slot)(inv) = *bytes >> 20;
    return;
  }
  const std::string raw{text};
  json::Value value = json::Value::string(raw);
  if (std::holds_alternative<Get<std::vector<std::string>>>(row.slot)) {
    value = json::Value::array();
    value.push(json::Value::string(raw));
  } else if (!std::holds_alternative<Get<std::string>>(row.slot)) {
    // Numbers and bools read as JSON text; a bare name stays a string.
    try {
      value = json::Value::parse(raw);
    } catch (const json::JsonError&) {
    }
  }
  set_value(row, value, inv, subject);
}

Request parse_request(const std::string& line) {
  json::Value doc;
  try {
    doc = json::Value::parse(line);
  } catch (const json::JsonError& e) {
    fail(std::string("bad json: ") + e.what());
  }
  if (!doc.is_object()) fail("request must be a json object");

  Invocation inv;
  const auto field = [&](const Row& row) {
    const std::string subject = "field '" + std::string(row.name) + "'";
    if (const json::Value* v = doc.find(row.name); v != nullptr)
      set_value(row, *v, inv, subject);
    else if (row.required)
      fail(subject + " (non-empty string) is required");
    else if (!row.def.empty())
      set_text(row, inv, row.def);
  };
  field(kId);
  field(kKind);
  const auto parsed = kind_by_name(inv.cli.request);
  if (!parsed) fail("unknown kind '" + inv.cli.request + "'");
  inv.req.kind = *parsed;
  const auto rows = rows_of(*parsed);

  // Unknown fields are hard errors, so client typos ("algorithim") cannot
  // silently select defaults.
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (key == "id" || key == "kind") continue;
    if (std::ranges::none_of(rows, [&](const Row& row) {
          return on_wire(row) && row.name == key;
        }))
      fail("unknown field '" + key + "'");
  }
  // A CLI-only row is never in `doc` (its empty name is no wire field),
  // so it takes its default: soc and field run on the simulator.
  for (const Row& row : rows) field(row);
  return std::move(inv.req);
}

std::string request_line(const Request& req) {
  Invocation inv{.req = req, .cli = {}};
  json::Value obj = json::Value::object();
  obj.set("id", json::Value::string(req.id));
  obj.set("kind", json::Value::string(std::string(to_string(req.kind))));
  for (const Row& row : rows_of(req.kind))
    if (on_wire(row)) obj.set(std::string(row.name), value_of(row, inv));
  return obj.dump();
}

std::vector<memsim::FaultClass> fault_classes(const Request& req) {
  if (req.fault_classes.empty()) return memsim::all_fault_classes();
  std::vector<memsim::FaultClass> out;
  for (const auto& name : req.fault_classes) {
    const auto cls = memsim::fault_class_by_name(name);
    if (!cls) throw std::runtime_error("unknown fault class '" + name + "'");
    out.push_back(*cls);
  }
  return out;
}

std::string event_accepted(const std::string& id) {
  return event_base("accepted", id).dump();
}

std::string event_progress(const std::string& id, int done, int total) {
  json::Value obj = event_base("progress", id);
  obj.set("done", json::Value::number(static_cast<std::int64_t>(done)));
  obj.set("total", json::Value::number(static_cast<std::int64_t>(total)));
  return obj.dump();
}

std::string event_result(const std::string& id, int exit_code,
                         const std::string& payload) {
  json::Value obj = event_base("result", id);
  obj.set("exit", json::Value::number(static_cast<std::int64_t>(exit_code)));
  obj.set("payload", json::Value::string(payload));
  return obj.dump();
}

std::string event_error(const std::string& id, const std::string& message) {
  json::Value obj = event_base("error", id);
  obj.set("message", json::Value::string(message));
  return obj.dump();
}

std::string event_cancelled(const std::string& id) {
  return event_base("cancelled", id).dump();
}

}  // namespace pmbist::serve

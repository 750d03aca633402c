// pmbist — command-line front end to the programmable-MBIST library.
//
// `pmbist --help` (or `pmbist <command> --help`) prints every command and
// its flags on stdout and exits 0.  The work commands coverage, soc,
// field, memtest and lint take exactly the rows of their serve request
// kind (campaign, soc, field, memtest, lint): the per-kind tables in
// serve/protocol.h drive this file's flag parsing, the serve JSON parser,
// `submit` and the --help text.  They then run through serve::run_request
// (serve/executor.h), the one mapping from a request onto the engines that
// serve sessions call too, so the one-shot CLI and the service cannot
// drift apart.  The other commands declare small flag sets of their own in
// commands() below.  Every command rejects any flag outside its set.
//
// Exit codes are uniform across subcommands: 0 = success, 1 = the checked
// artifact failed (BIST mismatch, unhealthy chip, lint errors), 2 = usage
// or input errors.
//
// <algorithm|dsl> is a library name ("March C+") or an inline DSL string
// ("any(w0); up(r0,w1); ...").

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bist/session.h"
#include "common/json.h"
#include "field/profile.h"
#include "lint/fix.h"
#include "march/analysis.h"
#include "march/coverage.h"
#include "march/library.h"
#include "mbist_hardwired/area.h"
#include "mbist_hardwired/controller.h"
#include "mbist_pfsm/area.h"
#include "mbist_pfsm/controller.h"
#include "mbist_ucode/area.h"
#include "mbist_ucode/controller.h"
#include "mbist_ucode/rtl.h"
#include "netlist/verilog.h"
#include "serve/executor.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "soc/chip.h"
#include "soc/plan.h"

namespace {

using namespace pmbist;
using serve::Form;
using serve::Get;
using serve::Invocation;
using serve::RequestKind;
using serve::Row;

struct Command {
  std::string_view name;
  std::string_view summary;
  int (*run)(const Invocation&);
  /// The request kind whose rows the command takes, besides its own rows.
  std::optional<RequestKind> kind;
  std::vector<Row> rows;
};

const std::vector<Command>& commands();

/// A command's flag set: its own rows, then its kind's (without the wire
/// fields that have no flag).
std::vector<Row> flag_set(const Command& cmd,
                          std::optional<RequestKind> kind, bool wire_only) {
  std::vector<Row> rows = cmd.rows;
  if (kind)
    for (const Row& row : serve::rows_of(*kind))
      if ((!row.flag.empty() || row.positional) &&
          !(wire_only && row.name.empty()))
        rows.push_back(row);
  return rows;
}

void print_usage(std::FILE* out) {
  std::fprintf(out, "usage: pmbist <command> [<argument>] [options]\n");
  for (const Command& cmd : commands()) {
    std::fprintf(out, "\n%s: %s\n", std::string(cmd.name).c_str(),
                 std::string(cmd.summary).c_str());
    for (const Row& row : flag_set(cmd, cmd.kind, false)) {
      const bool is_bool = std::holds_alternative<Get<bool>>(row.slot);
      std::string left{row.flag.empty() ? row.meta : row.flag};
      if (!row.flag.empty() && !is_bool) left.append(" ").append(row.meta);
      std::string help{row.help};
      if (!row.def.empty() && !is_bool)
        help.append(" (default ").append(row.def).append(")");
      std::fprintf(out, "  %-22s %s\n", left.c_str(), help.c_str());
    }
  }
  std::fprintf(out,
               "\nexit codes: 0 success, 1 check failed, 2 usage/input error;"
               "\nsubmit exits with the result's code, 2 on error, 1 on "
               "cancelled.\n`pmbist --help` or `pmbist <command> --help` "
               "prints this text.\n");
}

[[noreturn]] void usage(const std::string& why = {}) {
  if (!why.empty()) std::fprintf(stderr, "error: %s\n\n", why.c_str());
  print_usage(stderr);
  std::exit(2);
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream is{path};
  if (!is) return std::nullopt;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string read_file(const std::string& path) {
  if (auto text = slurp(path)) return *text;
  usage("cannot open " + path);
}

/// Sets `row` from one command-line argument, reading the file its Form
/// names first.
void set_from_cli(const Row& row, Invocation& inv, const std::string& arg) {
  std::string text = arg;
  if (row.form == Form::File) {
    text = read_file(arg);
  } else if (row.form == Form::PathOrInline || row.form == Form::Input) {
    if (auto contents = slurp(arg)) {
      text = std::move(*contents);
      if (row.form == Form::Input) inv.req.unit = arg;
    }
  }
  try {
    serve::set_text(row, inv, text);
  } catch (const serve::ProtocolError& e) {
    usage(e.what());
  }
}

/// Parses argv[2..] against `rows`; `who` names the command in errors.
/// Required positionals must be given; with `all_required` (submit),
/// every required row must.
Invocation parse(const std::string& who, const std::vector<Row>& rows,
                 bool all_required, int argc, char** argv) {
  Invocation inv;
  for (const Row& row : rows)
    if (!row.def.empty()) serve::set_text(row, inv, row.def);
  std::vector<bool> given(rows.size(), false);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool is_flag = arg.starts_with('-');
    std::size_t r = 0;
    while (r < rows.size() &&
           !(is_flag ? rows[r].flag == arg
                     : rows[r].positional && !given[r]))
      ++r;
    if (r == rows.size())
      usage(who + (is_flag ? " does not take " : " takes no argument ") +
            arg);
    given[r] = true;
    std::string text = arg;
    if (is_flag && std::holds_alternative<Get<bool>>(rows[r].slot))
      text = "true";
    else if (is_flag && i + 1 < argc)
      text = argv[++i];
    else if (is_flag)
      usage("missing value for " + arg);
    set_from_cli(rows[r], inv, text);
  }
  for (std::size_t r = 0; r < rows.size(); ++r)
    if (rows[r].required && !given[r] && (all_required || rows[r].positional))
      usage(who + " needs " +
            std::string(rows[r].flag.empty() ? rows[r].meta : rows[r].flag));
  return inv;
}

int cmd_list(const Invocation& inv) {
  const auto algorithms = march::all_algorithms();
  std::printf("%-16s %5s %8s %8s\n", "algorithm", "ops/n", "ucode", "pFSM");
  for (const auto& alg : algorithms) {
    const auto ucode = mbist_ucode::assemble(alg);
    std::string why;
    const bool pfsm_ok = mbist_pfsm::is_mappable(alg, &why);
    std::printf("%-16s %5d %7d%c %8s\n", alg.name().c_str(),
                alg.ops_per_cell(), ucode.program.size(),
                ucode.used_repeat ? '*' : ' ', pfsm_ok ? "yes" : "no");
  }
  std::printf("\n(* = Repeat-folded symmetric encoding)\n\n");
  std::printf("static qualification (G guaranteed / p partial / - none):\n");
  const auto& classes = memsim::all_fault_classes();
  std::printf("%s",
              march::format_analysis_table(algorithms, classes, inv.req.jobs)
                  .c_str());
  return 0;
}

/// The architectures `assemble` and `run` take, as their --arch rows show.
constexpr std::string_view kAssembleArchs = "ucode|pfsm";
constexpr std::string_view kRunArchs = "ucode|pfsm|hardwired";

/// The --arch value; a usage error unless `names` lists it.
const std::string& checked_arch(const Invocation& inv,
                                std::string_view names) {
  const std::string listed = "|" + std::string(names) + "|";
  if (listed.find("|" + inv.cli.arch + "|") == std::string::npos)
    usage("unknown --arch " + inv.cli.arch + " (expected " +
          std::string(names) + ")");
  return inv.cli.arch;
}

int cmd_assemble(const Invocation& inv) {
  const std::string& arch = checked_arch(inv, kAssembleArchs);
  const auto alg = soc::resolve_algorithm(inv.req.algorithm);
  if (arch == "pfsm") {
    const auto r = mbist_pfsm::compile(alg);
    std::printf("%s", inv.cli.hex ? r.program.to_hex_text().c_str()
                                  : r.program.listing().c_str());
    return 0;
  }
  const auto r = mbist_ucode::assemble(
      alg, {.symmetric_encoding = !inv.cli.flat});
  std::printf("%s", inv.cli.hex ? r.program.to_hex_text().c_str()
                                : r.program.listing().c_str());
  return 0;
}

int cmd_qualify(const Invocation& inv) {
  const auto alg = soc::resolve_algorithm(inv.req.algorithm);
  std::printf("%s = %s\n\n", alg.name().c_str(), alg.to_string().c_str());
  const auto verdicts = march::analyze_all(alg, inv.req.jobs);
  for (auto cls : memsim::all_fault_classes()) {
    std::printf("  %-5s %s\n",
                std::string(memsim::fault_class_name(cls)).c_str(),
                std::string(march::to_string(verdicts.at(cls))).c_str());
  }
  return 0;
}

int cmd_run(const Invocation& inv) {
  const std::string& arch = checked_arch(inv, kRunArchs);
  const std::string& program = inv.cli.program;
  const bool from_image = !program.empty();
  if (!from_image && inv.req.algorithm.empty())
    usage("run needs <algorithm|dsl> or --program FILE");
  const auto alg = from_image ? march::march_c()  // placeholder, unused
                              : soc::resolve_algorithm(inv.req.algorithm);
  const auto& geometry = inv.req.geometry;

  std::unique_ptr<bist::Controller> controller;
  if (from_image) {
    auto c = std::make_unique<mbist_ucode::MicrocodeController>(
        mbist_ucode::ControllerConfig{.geometry = geometry,
                                      .storage_depth = 64});
    c->load(mbist_ucode::MicrocodeProgram::from_hex_text(read_file(program)));
    std::printf("loaded image '%s' (%d instructions)\n",
                c->program().name().c_str(), c->program().size());
    controller = std::move(c);
  } else if (arch == "ucode") {
    auto c = std::make_unique<mbist_ucode::MicrocodeController>(
        mbist_ucode::ControllerConfig{.geometry = geometry,
                                      .storage_depth = 64});
    c->load_algorithm(alg, {.symmetric_encoding = !inv.cli.flat});
    controller = std::move(c);
  } else if (arch == "pfsm") {
    auto c = std::make_unique<mbist_pfsm::PfsmController>(
        mbist_pfsm::PfsmConfig{.geometry = geometry, .buffer_depth = 32});
    c->load_algorithm(alg);
    controller = std::move(c);
  } else {
    controller = std::make_unique<mbist_hardwired::HardwiredController>(
        alg, mbist_hardwired::HardwiredConfig{.geometry = geometry});
  }

  const std::uint64_t seed = inv.req.seed;
  memsim::FaultyMemory memory{geometry, seed};
  if (!inv.req.fault_classes.empty()) {
    const auto universe = march::make_fault_universe(
        serve::fault_classes(inv.req).front(), geometry, seed, 64);
    const auto& fault = universe[seed % universe.size()];
    memory.add_fault(fault);
    std::printf("injected: %s\n", memsim::describe(fault).c_str());
  }

  const auto result = bist::run_session(*controller, memory);
  const std::string label = from_image ? "hex image " + program : alg.name();
  std::printf("%s on %s: %s\n", controller->name().c_str(), label.c_str(),
              result.passed() ? "PASS" : "FAIL");
  std::printf("  cycles=%llu reads=%llu writes=%llu pauses=%llu\n",
              static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.reads),
              static_cast<unsigned long long>(result.writes),
              static_cast<unsigned long long>(result.pauses));
  for (std::size_t i = 0; i < result.failures.size() && i < 8; ++i) {
    const auto& f = result.failures[i];
    std::printf("  fail[%zu]: addr=0x%X expected=0x%llX actual=0x%llX\n", i,
                f.op.addr, static_cast<unsigned long long>(f.op.data),
                static_cast<unsigned long long>(f.actual));
  }
  return result.passed() ? 0 : 1;
}

int cmd_area(const Invocation& inv) {
  const auto& geometry = inv.req.geometry;
  const auto lib = netlist::TechLibrary::cmos5s();

  mbist_ucode::AreaConfig uc{.geometry = geometry};
  std::printf("%s\n", mbist_ucode::microcode_area(uc).to_string(lib).c_str());
  uc.storage_cell = netlist::StorageCellClass::ScanOnly;
  std::printf("adjusted (scan-only storage): %.1f GE\n\n",
              mbist_ucode::microcode_area(uc).total_ge(lib));
  std::printf(
      "%s\n",
      mbist_pfsm::pfsm_area({.geometry = geometry}).to_string(lib).c_str());
  for (const auto& alg : march::paper_table_algorithms()) {
    const auto r = mbist_hardwired::hardwired_area(alg, {.geometry = geometry});
    std::printf("hardwired %-12s: %8.1f GE  %10.0f um^2\n",
                alg.name().c_str(), r.total_ge(lib), r.total_area_um2(lib));
  }
  return 0;
}

int cmd_export_decoder(const Invocation&) {
  std::vector<netlist::SopOutput> outputs;
  for (const auto& d : mbist_ucode::decoder_covers())
    outputs.push_back({d.name, d.cover});
  std::printf("%s\n",
              netlist::emit_sop_module("ucode_decoder",
                                       mbist_ucode::decoder_input_names(),
                                       outputs)
                  .c_str());
  std::printf("%s",
              netlist::emit_fsm_module(mbist_pfsm::lower_controller_fsm(),
                                       "pfsm_lower_ctrl")
                  .c_str());
  return 0;
}

int cmd_export(const Invocation& inv) {
  if (inv.req.algorithm.empty()) {
    // No algorithm: emit the full programmable unit (storage, decoder,
    // datapath) — it runs any algorithm, so none is needed.
    std::printf("%s",
                mbist_ucode::emit_controller_rtl(
                    {.geometry = inv.req.geometry, .storage_depth = 32})
                    .c_str());
    return 0;
  }
  const auto alg = soc::resolve_algorithm(inv.req.algorithm);
  const auto fsm = mbist_hardwired::generate_fsm(
      alg, mbist_hardwired::HardwiredFeatures::for_geometry(inv.req.geometry));
  std::printf("%s", netlist::emit_fsm_module(
                        fsm, "bist_" + netlist::verilog_identifier(
                                           alg.name()) + "_ctrl")
                        .c_str());
  return 0;
}

/// Writes `text` to `path` (for --emit-schedule); exits 2 when the file
/// cannot be created.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) usage("cannot write " + path);
  out << text;
}

/// coverage, soc, field, memtest and lint: the request's executor, shared
/// with serve, whose payload is this stdout.  Only the CLI may leave out a
/// chip or profile: it runs the built-in demo's, and says so first.
int cmd_request(const Invocation& inv) {
  serve::Request req = inv.req;
  const bool schedules = req.kind == RequestKind::Soc ||
                         req.kind == RequestKind::Field;
  if (schedules && req.chip.empty()) {
    std::printf("no --chip given: running the built-in demo chip\n");
    req.chip = soc::to_chip_text(soc::demo_soc(), soc::demo_plan());
  }
  if (req.kind == RequestKind::Field && req.profile.empty()) {
    std::printf("no --profile given: using the built-in demo profile\n");
    req.profile = field::to_profile_text(field::demo_profile());
  }
  const serve::Outcome out = serve::run_request(req, {.cli = inv.cli});
  std::fputs(out.payload.c_str(), stdout);
  std::fputs(out.notes.c_str(), stderr);
  if (!inv.cli.emit_schedule.empty())
    write_file(inv.cli.emit_schedule, out.schedule);
  return out.exit_code;
}

/// lint --fix rewrites the input file before the request runs.
int cmd_lint(const Invocation& inv) {
  if (!inv.cli.fix) return cmd_request(inv);
  Invocation fixed = inv;
  serve::Request& req = fixed.req;
  // `unit` is the input's path when the positional opened as a file.
  if (req.unit == "input") {
    std::fprintf(stderr,
                 "error: --fix rewrites the input in place and needs a "
                 "file argument\n");
    return 2;
  }
  const lint::FixResult result = lint::fix_text(req.input, req.unit);
  std::printf("%s: %s\n", req.unit.c_str(), result.summary.c_str());
  if (result.changed) {
    std::ofstream out{req.unit, std::ios::trunc};
    if (!out) {
      std::fprintf(stderr, "error: cannot rewrite %s\n", req.unit.c_str());
      return 2;
    }
    out << result.text;
    req.input = result.text;
  }
  return cmd_request(fixed);
}

int cmd_serve(const Invocation& inv) {
  serve::ServerOptions sopts;
  sopts.sessions = inv.cli.sessions;
  sopts.stream_cache_bytes = static_cast<std::size_t>(inv.cli.cache_mb) << 20;
  sopts.certify = inv.req.certify;
  serve::Server server{sopts};

  if (inv.cli.port >= 0) {
    std::string error;
    const int rc = server.serve_tcp(
        inv.cli.port,
        [](int bound) {
          std::fprintf(stderr, "serving on 127.0.0.1:%d\n", bound);
        },
        &error);
    if (rc != 0) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    return 0;
  }
  server.run_pipe(std::cin, std::cout, inv.cli.payload_dir);
  return 0;
}

int cmd_submit(const Invocation& inv) {
  if (inv.cli.port < 0)
    usage("submit needs --port N (the port a `pmbist serve --port` printed)");
  // The wire carries whole MiB; only below 1 MiB does that change the
  // buffer (above it, power-of-two rounding gives the CLI's buffer).
  if (inv.req.kind == RequestKind::Memtest && inv.cli.size_bytes < (1u << 20))
    usage("submit --req memtest does not take --size below 1M");
  const std::string line = serve::request_line(inv.req) + "\n";

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return 2;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(inv.cli.port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%d: %s\n",
                 inv.cli.port, std::strerror(errno));
    ::close(fd);
    return 2;
  }
  for (std::size_t off = 0; off < line.size();) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      std::fprintf(stderr, "error: send: %s\n", std::strerror(errno));
      ::close(fd);
      return 2;
    }
    off += static_cast<std::size_t>(n);
  }
  // Half-close: the server drains this connection's sessions before closing
  // its end, so reading to EOF is guaranteed to see every terminal event.
  ::shutdown(fd, SHUT_WR);

  int exit_code = 2;
  bool terminal = false;
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string event = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      std::fputs(event.c_str(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);  // events stream live, not at exit
      try {
        const auto v = common::json::Value::parse(event);
        const auto* name = v.find("event");
        if (name == nullptr || !name->is_string()) continue;
        if (name->as_string() == "result") {
          const auto* exit_field = v.find("exit");
          exit_code = exit_field != nullptr && exit_field->is_number()
                          ? static_cast<int>(exit_field->as_i64())
                          : 0;
          terminal = true;
        } else if (name->as_string() == "error") {
          exit_code = 2;
          terminal = true;
        } else if (name->as_string() == "cancelled") {
          exit_code = 1;
          terminal = true;
        }
      } catch (const common::json::JsonError&) {
        // A non-JSON line is the server's bug, not ours: pass it through
        // verbatim and keep the connection-level exit semantics.
      }
    }
  }
  ::close(fd);
  if (!terminal)
    std::fprintf(stderr,
                 "error: connection closed before a terminal event\n");
  return exit_code;
}

/// The row of `kind` whose wire name is `name`, for commands that share it.
Row row_of(RequestKind kind, std::string_view name) {
  for (const Row& row : serve::rows_of(kind))
    if (row.name == name) return row;
  throw std::logic_error("no row '" + std::string(name) + "'");
}

/// A flag of its own for a command that is no request kind.
Row own(std::string_view flag, serve::Slot slot, std::string_view meta,
        std::string_view help, std::string_view def = {},
        std::uint64_t max = 65535) {
  return {.flag = flag, .slot = slot, .def = def,
          .max = max, .meta = meta, .help = help};
}

Row optional_algorithm(std::string_view help) {
  return {.slot = serve::of_req<&serve::Request::algorithm>,
          .positional = true, .meta = "[<algorithm|dsl>]",
          .help = help};
}

const std::vector<Command>& commands() {
  using K = RequestKind;
  using serve::CliValues;
  using serve::of_cli;
  using serve::of_req;
  const Row algorithm = row_of(K::Campaign, "algorithm");
  const Row jobs = row_of(K::Campaign, "jobs");
  const Row addr_bits = row_of(K::Campaign, "addr_bits");
  const Row word_bits = row_of(K::Campaign, "word_bits");
  const Row ports = row_of(K::Campaign, "ports");
  const auto arch = [](std::string_view names) {
    return own("--arch", of_cli<&CliValues::arch>, names,
               "controller architecture", "ucode");
  };
  const Row flat =
      own("--flat", of_cli<&CliValues::flat>, "", "no Repeat fold");
  static const std::vector<Command> kCommands{
      {"list", "library algorithms, complexity, qualification", cmd_list, {},
       {jobs}},
      {"assemble", "compile an algorithm, print the program listing",
       cmd_assemble, {},
       {algorithm, arch(kAssembleArchs), flat,
        own("--hex", of_cli<&CliValues::hex>, "", "portable hex image")}},
      {"qualify", "static detection guarantees per fault class", cmd_qualify,
       {}, {algorithm, jobs}},
      {"run", "cycle-accurate BIST run on one memory", cmd_run, {},
       {optional_algorithm("omit with --program"), arch(kRunArchs), addr_bits,
        word_bits, ports,
        own("--fault", of_req<&serve::Request::fault_classes>, "CLASS",
            "inject one sampled fault of this class"),
        row_of(K::Campaign, "seed"), flat,
        own("--program", of_cli<&CliValues::program>, "FILE",
            "run this hex microcode image")}},
      {"area", "area report of all architectures for a geometry", cmd_area,
       {}, {addr_bits, word_bits, ports}},
      {"coverage", "fault-simulation campaign for one algorithm",
       cmd_request, K::Campaign, {}},
      {"export", "hardwired/programmable controller as Verilog", cmd_export,
       {},
       {optional_algorithm("its hardwired FSM (default: the microcode unit)"),
        addr_bits, word_bits, ports}},
      {"export-decoder", "microcode decoder + pFSM lower controller Verilog",
       cmd_export_decoder, {}, {}},
      {"soc", "whole-chip scheduled BIST from a chip file", cmd_request,
       K::Soc, {}},
      {"field", "in-field transparent BIST inside idle windows", cmd_request,
       K::Field, {}},
      {"memtest", "march-test a block of host RAM (docs/BACKEND.md)",
       cmd_request, K::Memtest, {}},
      {"lint", "static verifier: march, ucode, pFSM, chip, profile, schedule",
       cmd_lint, K::Lint, {}},
      {"serve", "long-running BIST service, JSON in/out (docs/SERVE.md)",
       cmd_serve, {},
       {own("--port", of_cli<&CliValues::port>, "N",
            "loopback TCP port, 0 = any (default: stdin/stdout)"),
        own("--sessions", of_cli<&CliValues::sessions>, "N",
            "concurrent session workers", "2", 1024),
        own("--cache-mb", of_cli<&CliValues::cache_mb>, "N",
            "op-stream cache budget in MiB", "64", 1 << 20),
        own("--payload-dir", of_cli<&CliValues::payload_dir>, "DIR",
            "pipe mode: mirror result payloads to DIR/<id>.out"),
        own("--certify", of_req<&serve::Request::certify>, "",
            "certify every soc/field schedule before replying")}},
      {"submit", "send one request to `pmbist serve --port`, stream events",
       cmd_submit, {},
       {own("--port", of_cli<&CliValues::port>, "N",
            "the port `pmbist serve --port` printed"),
        own("--req", of_cli<&CliValues::request>,
            "campaign|soc|field|memtest|lint|cancel|stats",
            "request kind; then its command's wire flags", "lint"),
        own("--id", of_req<&serve::Request::id>, "ID",
            "client-chosen request id", "cli")}},
  };
  return kCommands;
}

/// The kind `pmbist submit --req KIND` sends; it picks the flag set, so it
/// is read before the other flags.
RequestKind submit_kind(const Command& submit, int argc, char** argv) {
  const Row& req =
      *std::ranges::find(submit.rows, std::string_view{"--req"}, &Row::flag);
  std::string name{req.def};
  for (int i = 2; i + 1 < argc; ++i)
    if (req.flag == argv[i]) name = argv[i + 1];
  const auto kind = serve::kind_by_name(name);
  if (!kind) usage("--req expects " + std::string(req.meta) + ", not " + name);
  return *kind;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // `--help` anywhere (and the bare `help` command) wins over everything
    // else: print the usage text on stdout and exit 0, uniformly across
    // subcommands.
    const auto help = [](std::string_view arg) {
      return arg == "--help" || arg == "-h";
    };
    if (std::any_of(argv + 1, argv + argc, help) ||
        (argc >= 2 && std::string_view{argv[1]} == "help")) {
      print_usage(stdout);
      return 0;
    }
    if (argc < 2) usage();
    const std::string name = argv[1];
    const auto& all = commands();
    const auto cmd = std::ranges::find(all, name, &Command::name);
    if (cmd == all.end()) usage("unknown command " + name);

    const bool submit = cmd->name == "submit";
    const auto kind = submit ? submit_kind(*cmd, argc, argv) : cmd->kind;
    const std::string who =
        submit ? name + " --req " + std::string(serve::to_string(*kind))
               : name;
    Invocation inv =
        parse(who, flag_set(*cmd, kind, submit), submit, argc, argv);
    if (kind) inv.req.kind = *kind;
    return cmd->run(inv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

#pragma once
// Umbrella header for the pmbist library — the reproduction of
// Zarrineh & Upadhyaya, "On Programmable Memory Built-In Self Test
// Architectures" (DATE 1999).
//
// Typical entry points:
//   march::by_name / march::parse      pick or write a test algorithm
//   mbist_ucode::MicrocodeController   the paper's microcode architecture
//   mbist_pfsm::PfsmController         the programmable FSM architecture
//   mbist_hardwired::HardwiredController  the non-programmable baseline
//   bist::run_session                  run any controller against a memory
//   memsim::Memory / march::apply_op   the one memory interface and the
//                                      one op-application step
//   memsim::FaultyMemory               the memory under test + fault zoo
//   march::analyze / evaluate_coverage qualification & fault simulation
//   mbist_ucode::microcode_area etc.   silicon-overhead models (Tables 1-3)
//   diag::* / repair::*                diagnostics, transparent test, BISR
//   backend::run_memtest               march the host's own RAM (memtest);
//                                      backend::HostRamBackend is a Memory

#include "backend/backend.h"
#include "backend/memtest.h"
#include "bist/controller.h"
#include "bist/datapath.h"
#include "bist/misr.h"
#include "bist/session.h"
#include "diag/bitmap.h"
#include "diag/classify.h"
#include "diag/npsf.h"
#include "diag/transparent.h"
#include "march/analysis.h"
#include "march/coverage.h"
#include "march/expand.h"
#include "march/library.h"
#include "march/march.h"
#include "march/parser.h"
#include "mbist_hardwired/area.h"
#include "mbist_hardwired/controller.h"
#include "mbist_hardwired/generator.h"
#include "mbist_pfsm/area.h"
#include "mbist_pfsm/compiler.h"
#include "mbist_pfsm/components.h"
#include "mbist_pfsm/controller.h"
#include "mbist_pfsm/isa.h"
#include "mbist_ucode/area.h"
#include "mbist_ucode/assembler.h"
#include "mbist_ucode/controller.h"
#include "mbist_ucode/isa.h"
#include "mbist_ucode/rtl.h"
#include "memsim/fault_model.h"
#include "memsim/faulty_memory.h"
#include "memsim/memory.h"
#include "memsim/topology.h"
#include "netlist/components.h"
#include "netlist/fsm_synth.h"
#include "netlist/gate_inventory.h"
#include "netlist/logic.h"
#include "netlist/qm.h"
#include "netlist/tech_library.h"
#include "netlist/verilog.h"
#include "repair/redundancy.h"
#include "repair/repaired_memory.h"

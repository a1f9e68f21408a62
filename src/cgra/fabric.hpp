// cgra/fabric.hpp — the public face of the simulation core.
//
// One include for everything needed to build, program and run a fabric:
//
//   * common/   — Word fixed-point arithmetic, Status/Fault, timing
//                 constants (400 MHz clock, ICAP throughput), text tables.
//   * isa/      — the reMORPH-style tile ISA: assembler, disassembler,
//                 Program/DataPatch containers.
//   * fabric/   — Tile and Fabric (the cycle-level R x C mesh simulator)
//                 plus the execution tracer.
//   * interconnect/ — near-neighbour link configuration, routing and the
//                 link reconfiguration cost model.
//   * config/   — EpochConfig partial-reconfiguration units, the ICAP-
//                 modelled ReconfigController, Timeline (Eq. 1) and the
//                 post-run profiler.
//   * obs/      — observability the core hooks into: metrics registry,
//                 span timelines (Chrome trace export), profiling
//                 reports, bench JSON.
//
// The apps facade (cgra/apps.hpp) and the job-service facade
// (cgra/service.hpp) layer on top; include the most specific one you
// need.  Fine-grained headers stay available for targeted includes, but
// examples and external consumers should start here.
#pragma once

#include "common/fixed_complex.hpp"
#include "common/prng.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "common/word.hpp"

#include "isa/assembler.hpp"
#include "isa/decoded.hpp"
#include "isa/disassembler.hpp"
#include "isa/image.hpp"
#include "isa/instruction.hpp"
#include "isa/program.hpp"

#include "fabric/fabric.hpp"
#include "fabric/tile.hpp"
#include "fabric/trace.hpp"

#include "interconnect/link.hpp"
#include "interconnect/routing.hpp"

#include "config/epoch.hpp"
#include "config/profiler.hpp"
#include "config/reconfig.hpp"

#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"

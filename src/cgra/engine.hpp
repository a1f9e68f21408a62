// cgra/engine.hpp — the pluggable execution-engine facade.
//
// One include for selecting and driving execution engines:
//
//   * engine/engine.hpp — EngineKind and its names, the ExecutionEngine
//                 hierarchy (interpreter, threaded superinstruction
//                 dispatch) and the process-wide default installation.
//   * engine/cli.hpp — the shared --engine flag parser every executable
//                 entry point uses.
//   * isa/blocks.hpp — basic-block segmentation, the unit of the threaded
//                 engine's specialization (exposed for tooling/tests).
//
// Layered on cgra/fabric.hpp: a fabric::Fabric runs unchanged on either
// engine, and the threaded engine is bit-identical to the interpreter.
#pragma once

#include "cgra/fabric.hpp"

#include "engine/cli.hpp"
#include "engine/engine.hpp"
#include "isa/blocks.hpp"

// Shared --engine flag handling for every executable entry point
// (profile_run, serve_demo, the bench mains).  One parser, one spelling:
//
//   --engine=interp | threaded      (or "--engine NAME")
//
// The chosen engine is installed as the process-wide default
// (engine::use_process_engine), so every fabric created afterwards runs on
// it.  Without the flag the build-configured default (CGRA_DEFAULT_ENGINE)
// applies.
#pragma once

#include "engine/engine.hpp"

namespace cgra::engine {

/// Consume any --engine arguments from argv (compacting it in place and
/// updating *argc), install the selection process-wide, and return it.
/// Prints a diagnostic and exits with status 2 on an unknown engine name.
EngineKind apply_engine_flag(int* argc, char** argv);

}  // namespace cgra::engine

#include "engine/engine.hpp"

#include <atomic>

#include "obs/bench_report.hpp"

namespace cgra::engine {

const char* engine_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kInterp:
      return "interp";
    case EngineKind::kThreaded:
      return "threaded";
  }
  return "interp";
}

std::optional<EngineKind> engine_from_name(std::string_view name) noexcept {
  if (name == "interp") return EngineKind::kInterp;
  if (name == "threaded") return EngineKind::kThreaded;
  return std::nullopt;
}

std::unique_ptr<ExecutionEngine> make_engine(EngineKind kind) {
  if (kind == EngineKind::kThreaded) return std::make_unique<ThreadedEngine>();
  return std::make_unique<InterpreterEngine>();
}

namespace {

std::atomic<EngineKind>& process_engine_kind() {
  static std::atomic<EngineKind> kind{EngineKind::kInterp};
  return kind;
}

std::unique_ptr<fabric::ExecutionHook> make_process_default() {
  const EngineKind kind = process_engine();
  // nullptr keeps the built-in interpreter (Fabric::resolve_engine).
  if (kind == EngineKind::kInterp) return nullptr;
  return make_engine(kind);
}

}  // namespace

void use_process_engine(EngineKind kind) {
  process_engine_kind().store(kind);
  fabric::set_default_engine_factory(
      kind == EngineKind::kInterp ? nullptr : &make_process_default);
  // Keep BENCH_*.json stamps in sync so perf_compare.py can refuse
  // cross-engine comparisons.
  obs::set_bench_engine_label(engine_name(kind));
}

EngineKind process_engine() noexcept { return process_engine_kind().load(); }

void install_build_default() {
#ifdef CGRA_DEFAULT_ENGINE_NAME
  if (const auto kind = engine_from_name(CGRA_DEFAULT_ENGINE_NAME)) {
    if (*kind != EngineKind::kInterp) use_process_engine(*kind);
  }
#endif
}

}  // namespace cgra::engine

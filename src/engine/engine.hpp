// Pluggable execution engines: one cgra::engine API over two
// implementations (docs/ARCHITECTURE.md, "Execution engines").
//
//   * InterpreterEngine — the built-in reference interpreter, explicitly.
//   * ThreadedEngine    — per-block specialization of decoded basic blocks
//                         into templated straight-line superinstructions,
//                         re-specialized when a tile's code_version() moves
//                         (imem pokes, reloads).
//
// The threaded engine is bit-identical to the interpreter: same cycle
// counts, TileStats, fault records, remote-write commit order and trace
// event streams (tests/test_engine.cpp enforces it).  Both run the one
// shared semantic core (fabric/step_core.hpp) and the one shared
// per-cycle sweep (fabric/exec_access.hpp), so identity holds by
// construction, not by parallel maintenance.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "fabric/fabric.hpp"

namespace cgra::engine {

/// Which execution strategy drives a fabric.
enum class EngineKind { kInterp, kThreaded };

/// Canonical name: "interp" | "threaded".
[[nodiscard]] const char* engine_name(EngineKind kind) noexcept;
/// Inverse of engine_name; nullopt for any other string.
[[nodiscard]] std::optional<EngineKind> engine_from_name(
    std::string_view name) noexcept;

/// Common base: a fabric::ExecutionHook that knows which kind it is.
class ExecutionEngine : public fabric::ExecutionHook {
 public:
  [[nodiscard]] virtual EngineKind kind() const noexcept = 0;
};

/// The reference interpreter as an explicit engine (attach it to pin a
/// fabric to the interpreter regardless of the process default).
class InterpreterEngine final : public ExecutionEngine {
 public:
  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kInterp;
  }
  fabric::RunResult run(fabric::Fabric& fabric,
                        std::int64_t max_cycles) override {
    return fabric.run_interpreter(max_cycles);
  }
  int step(fabric::Fabric& fabric) override {
    return fabric.step_interpreter();
  }
};

/// Superinstruction dispatch: each tile's program is specialized, per basic
/// block, into templated straight-line C++ superinstructions (the opcode /
/// remote / immediate decisions folded into the instantiation).  A
/// lone-runner tile additionally executes whole pure straight-line runs —
/// no branch, halt, remote write or possible fault — without per-cycle
/// sweep overhead.  Specializations are cached per tile and rebuilt when
/// Tile::code_version() moves.
class ThreadedEngine final : public ExecutionEngine {
 public:
  ThreadedEngine();
  ~ThreadedEngine() override;
  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kThreaded;
  }
  fabric::RunResult run(fabric::Fabric& fabric,
                        std::int64_t max_cycles) override;
  int step(fabric::Fabric& fabric) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Construct an engine of `kind`; kInterp returns an InterpreterEngine.
[[nodiscard]] std::unique_ptr<ExecutionEngine> make_engine(EngineKind kind);

/// Install `kind` as the process-wide default: fabrics that never had an
/// engine attached resolve it lazily on first run()/step()
/// (fabric::set_default_engine_factory).  Thread-safe; kInterp clears the
/// factory so such fabrics stay on the built-in interpreter.
void use_process_engine(EngineKind kind);
/// The currently installed process-wide default.
[[nodiscard]] EngineKind process_engine() noexcept;

/// Install the build-configured default engine (the CGRA_DEFAULT_ENGINE
/// CMake cache variable, e.g. the CI leg that runs the whole test suite on
/// the threaded engine).  No-op when the build default is "interp".
void install_build_default();

}  // namespace cgra::engine

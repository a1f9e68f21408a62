// Internal: superinstruction dispatch tables (not part of cgra/engine.hpp).
//
// One templated specialization of the shared step core per
// (opcode, remote-destination, immediate) combination, generated over the
// whole opcode space at compile time; the threaded engine indexes the
// per-instruction table (StepFn over a TileView).
//
// Classification normalizes don't-care flag bits — a remote flag on an
// opcode that writes nothing, an immediate flag on one that reads no opB —
// so equivalent encodings dispatch to one specialization.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "fabric/step_core.hpp"
#include "isa/decoded.hpp"
#include "isa/instruction.hpp"

namespace cgra::engine::detail {

inline constexpr std::size_t kOpcodeSlots =
    static_cast<std::size_t>(isa::Opcode::kOpcodeCount);

/// One instruction against one tile.
using StepFn = bool (*)(fabric::TileView&, const isa::DecodedInstr&,
                        fabric::LinkState);

template <isa::Opcode Op, bool Remote, bool UseImm>
bool exec_fast(fabric::TileView& v, const isa::DecodedInstr& in,
               fabric::LinkState link) {
  return fabric::core::exec_instr<fabric::core::FastTraits<Op, Remote, UseImm>>(
      v, in, link);
}

/// Fallback for instructions fast_eligible() rejects: the full dynamic
/// core, i.e. exactly what the interpreter runs.
inline bool exec_generic(fabric::TileView& v, const isa::DecodedInstr& in,
                         fabric::LinkState link) {
  return fabric::core::exec_instr<fabric::core::DynTraits>(v, in, link);
}

template <std::size_t I>
constexpr std::array<StepFn, 4> step_variants() {
  constexpr auto kOp = static_cast<isa::Opcode>(I);
  return {&exec_fast<kOp, false, false>, &exec_fast<kOp, false, true>,
          &exec_fast<kOp, true, false>, &exec_fast<kOp, true, true>};
}

template <std::size_t... Is>
constexpr auto make_step_table(std::index_sequence<Is...>) {
  return std::array<std::array<StepFn, 4>, sizeof...(Is)>{
      step_variants<Is>()...};
}

inline constexpr auto kStepTable =
    make_step_table(std::make_index_sequence<kOpcodeSlots>{});

[[nodiscard]] constexpr std::size_t variant_index(
    const isa::DecodedInstr& in) noexcept {
  const bool remote = in.dst_remote && isa::writes_dst(in.opcode);
  const bool imm = in.use_imm && isa::reads_srcb(in.opcode);
  return (remote ? 2u : 0u) + (imm ? 1u : 0u);
}

/// The specialization executing `in`, or the generic core when it is not
/// fast-eligible.  Never null.
[[nodiscard]] inline StepFn select_step_fn(const isa::DecodedInstr& in) {
  if (!fabric::core::fast_eligible(in)) return &exec_generic;
  return kStepTable[static_cast<std::size_t>(in.opcode)][variant_index(in)];
}

/// True when `in` can run in a checked-free straight line: it cannot
/// fault, branch, halt or emit a remote write, so executing it touches
/// nothing but this tile's memory/acc/pc/stats.  The unit of the threaded
/// engine's lone-runner burst loop.
[[nodiscard]] constexpr bool pure_instr(const isa::DecodedInstr& in) noexcept {
  return fabric::core::fast_eligible(in) && !isa::is_branch(in.opcode) &&
         in.opcode != isa::Opcode::kHalt &&
         !(in.dst_remote && isa::writes_dst(in.opcode));
}

}  // namespace cgra::engine::detail

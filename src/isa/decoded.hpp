// Predecoded instruction form for the fabric fast path.
//
// The interpreter used to re-derive, on every retired instruction, facts
// that are fixed at configuration time: which operands the opcode reads,
// whether the destination is written, every addressing-mode flag bit, the
// sign-extended immediate, and whether a direct address field is inside the
// 512-word data memory.  A DecodedInstr resolves all of that once, when a
// program is prepared (isa::Image) or when fault injection pokes an
// instruction slot, so the per-cycle dispatch touches only plain pre-split
// fields.
//
// Invariants (docs/ARCHITECTURE.md, "Execution engine"):
//   * predecode(decode(encode(i))) is consistent with interpreting `i`
//     directly — predecoding changes no architectural semantics.
//   * A slot whose opcode field no longer decodes (SEU poisoning) predecodes
//     with `illegal = true` and raises kIllegalOpcode when executed.
//   * `*_oob` pre-resolves the bounds check of the 12-bit address FIELD
//     (the direct address, or the pointer's own location when indirect);
//     indirect addresses still validate the pointer VALUE at run time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/timing.hpp"
#include "common/word.hpp"
#include "isa/instruction.hpp"

namespace cgra::isa {

/// One instruction, flattened for the interpreter hot loop.
struct DecodedInstr {
  Opcode opcode = Opcode::kNop;
  bool illegal = false;       ///< Poisoned slot: raise kIllegalOpcode.

  // --- operand fetch ---
  bool reads_srca = false;
  bool srca_indirect = false;
  bool srca_oob = false;      ///< srcA field (address or pointer location)
                              ///< exceeds the data memory: static fault.
  bool reads_srcb = false;    ///< Opcode consumes opB (memory or immediate).
  bool use_imm = false;       ///< opB comes from the immediate.
  bool srcb_indirect = false;
  bool srcb_oob = false;      ///< srcB field exceeds the data memory.

  // --- write back ---
  bool writes_dst = false;
  bool dst_remote = false;    ///< Write lands in the linked neighbour.
  bool dst_indirect = false;
  bool dst_oob = false;       ///< dst field exceeds the data memory.

  std::uint16_t dst = 0;
  std::uint16_t srca = 0;
  std::uint16_t srcb = 0;
  std::int32_t imm = 0;       ///< Branch target / raw immediate.
  Word imm_word = 0;          ///< from_signed(imm), precomputed.
};

/// Flatten one instruction.  Handles the poisoned kOpcodeCount slot.
[[nodiscard]] DecodedInstr predecode(const Instruction& in) noexcept;

/// Flatten a whole instruction image (isa::Image preparation).
[[nodiscard]] std::vector<DecodedInstr> predecode_all(
    const std::vector<Instruction>& code);

}  // namespace cgra::isa

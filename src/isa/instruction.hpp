// The tile instruction set.
//
// reMORPH never published its encodings; we define a 72-bit memory-to-memory
// ISA with the documented capabilities: 48-bit ALU and packed-complex ops,
// two reads + one write per instruction (matching the dual-port data memory),
// direct and register-indirect addressing, immediates, branches for C-style
// loops, and remote writes into the neighbour connected by the active link.
//
// Encoding (72 bits):
//   [71:66] opcode   [65:60] flags   [59:48] dst
//   [47:36] srcA     [35:24] srcB    [23:0]  imm (two's complement)
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/word.hpp"

namespace cgra::isa {

/// Opcode space (6 bits).
enum class Opcode : std::uint8_t {
  kNop = 0,   ///< No operation.
  kHalt,      ///< Stop the tile; it stays halted until reprogrammed.
  kMov,       ///< dst <- [srcA]
  kMovi,      ///< dst <- sign_extend(imm)
  kAdd,       ///< dst <- [srcA] + opB   (48-bit wrap)
  kSub,       ///< dst <- [srcA] - opB
  kMul,       ///< dst <- [srcA] * opB   (low 48 bits, signed)
  kAnd,       ///< dst <- [srcA] & opB
  kOrr,       ///< dst <- [srcA] | opB
  kXor,       ///< dst <- [srcA] ^ opB
  kShl,       ///< dst <- [srcA] << (opB & 63)
  kShr,       ///< dst <- [srcA] >> (opB & 63)  logical
  kSra,       ///< dst <- [srcA] >> (opB & 63)  arithmetic
  kCadd,      ///< dst <- [srcA] +c opB  packed Q3.20 complex, saturating
  kCsub,      ///< dst <- [srcA] -c opB
  kCmul,      ///< dst <- [srcA] *c opB  renormalised Q3.20
  kBeqz,      ///< if [srcA] == 0 then pc <- imm
  kBnez,      ///< if [srcA] != 0 then pc <- imm
  kBltz,      ///< if signed([srcA]) < 0 then pc <- imm
  kJmp,       ///< pc <- imm
  // DSP-macro accumulator ops: the FPGA's hard DSP48 keeps a private
  // accumulator, so multiply-accumulate needs no third memory read and the
  // 2R1W data-memory constraint still holds.
  kMacz,      ///< acc <- [srcA] * opB (wrapping modulo 2^64)
  kMac,       ///< acc <- acc + [srcA] * opB (wrapping modulo 2^64)
  kMacr,      ///< dst <- acc (truncated to 48 bits)
  kOpcodeCount
};

/// Flag bits (6 bits).
enum InstrFlag : std::uint8_t {
  kFlagDstIndirect = 1u << 0,   ///< dst address = [dst] (register-indirect).
  kFlagSrcAIndirect = 1u << 1,  ///< srcA address = [srcA].
  kFlagSrcBIndirect = 1u << 2,  ///< srcB address = [srcB].
  kFlagDstRemote = 1u << 3,     ///< Write lands in the linked neighbour.
  kFlagUseImm = 1u << 4,        ///< opB = sign_extend(imm) instead of [srcB].
};

/// Field widths / masks.
inline constexpr int kAddrFieldBits = 12;
inline constexpr std::uint32_t kAddrFieldMask = (1u << kAddrFieldBits) - 1;
inline constexpr int kImmBits = 24;
inline constexpr std::int32_t kImmMax = (1 << (kImmBits - 1)) - 1;
inline constexpr std::int32_t kImmMin = -(1 << (kImmBits - 1));

/// A decoded instruction.
struct Instruction {
  Opcode opcode = Opcode::kNop;
  std::uint8_t flags = 0;
  std::uint16_t dst = 0;   ///< 12-bit address field.
  std::uint16_t srca = 0;  ///< 12-bit address field.
  std::uint16_t srcb = 0;  ///< 12-bit address field.
  std::int32_t imm = 0;    ///< 24-bit signed immediate.

  [[nodiscard]] bool has_flag(InstrFlag f) const noexcept {
    return (flags & f) != 0;
  }
  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// A raw 72-bit instruction word: bits [71:64] in `hi`, [63:0] in `lo`.
struct EncodedInstr {
  std::uint64_t lo = 0;
  std::uint8_t hi = 0;
  friend bool operator==(const EncodedInstr&, const EncodedInstr&) = default;
};

/// Encode to the 72-bit form.  Fields are masked to their widths.
EncodedInstr encode(const Instruction& in) noexcept;

/// Decode a 72-bit word.  Returns nullopt if the opcode field is undefined.
std::optional<Instruction> decode(EncodedInstr raw) noexcept;

/// Mnemonic of an opcode ("cmul", "bnez", ...).
const char* mnemonic(Opcode op) noexcept;

/// Opcode from a mnemonic, or nullopt.
std::optional<Opcode> opcode_from_mnemonic(const std::string& name) noexcept;

// Opcode property helpers.  constexpr so the templated execution engines
// (src/fabric/step_core.hpp) fold them away when the opcode is a template
// parameter; the interpreter calls them with runtime opcodes as before.

/// Whether this opcode writes its dst field.
[[nodiscard]] constexpr bool writes_dst(Opcode op) noexcept {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kBeqz:
    case Opcode::kBnez:
    case Opcode::kBltz:
    case Opcode::kJmp:
    case Opcode::kMacz:
    case Opcode::kMac:
      return false;
    default:
      return true;
  }
}

/// Whether this opcode reads srcA / may read srcB.
[[nodiscard]] constexpr bool reads_srca(Opcode op) noexcept {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kMovi:
    case Opcode::kJmp:
    case Opcode::kMacr:
      return false;
    default:
      return true;
  }
}

[[nodiscard]] constexpr bool reads_srcb(Opcode op) noexcept {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOrr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSra:
    case Opcode::kCadd:
    case Opcode::kCsub:
    case Opcode::kCmul:
    case Opcode::kMacz:
    case Opcode::kMac:
      return true;
    default:
      return false;
  }
}

/// Whether this opcode is a control-flow instruction using imm as target.
[[nodiscard]] constexpr bool is_branch(Opcode op) noexcept {
  switch (op) {
    case Opcode::kBeqz:
    case Opcode::kBnez:
    case Opcode::kBltz:
    case Opcode::kJmp:
      return true;
    default:
      return false;
  }
}

}  // namespace cgra::isa

// The shared semantic step core: ONE implementation of the tile
// instruction semantics, used by every execution engine.
//
// `core::exec_instr<Traits>(view, in, link)` executes exactly one decoded
// instruction against a View of some tile state.  The interpreter
// (Tile::step) instantiates it with DynTraits over a TileView; the
// threaded engine instantiates FastTraits<opcode, remote, imm>
// specializations (superinstructions) over the same TileView.  Because
// both engines run the same template body, bit-identity — faults,
// write-back order, stats, pc updates — holds by construction; the
// conformance suite (tests/test_engine.cpp) checks it anyway.
//
// The body is a line-for-line extraction of the original Tile::step
// interpreter: fault raise points, check ordering (oob before indirect on
// operand fetch; indirect before oob on remote write-back) and the
// pc/stats/halt epilogue order are all load-bearing and must not change.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fixed_complex.hpp"
#include "common/word.hpp"
#include "fabric/tile.hpp"
#include "isa/decoded.hpp"
#include "isa/instruction.hpp"

namespace cgra::fabric {

/// Mutable view of one Tile's architectural state for the shared core.
/// All accessors are unchecked: the engine validated pc/addr class before
/// dispatch (or the core's own dynamic checks did).
class TileView {
 public:
  TileView(Tile& t, int tile_index, std::int64_t cycle,
           std::vector<RemoteWrite>& remote_out) noexcept
      : t_(t), tile_(tile_index), cycle_(cycle), out_(remote_out) {}

  [[nodiscard]] Word load(int addr) const {
    return t_.dmem_[static_cast<std::size_t>(addr)];
  }
  void store(int addr, Word v) {
    t_.dmem_[static_cast<std::size_t>(addr)] = v;
  }
  [[nodiscard]] std::int64_t& acc() noexcept { return t_.acc_; }
  [[nodiscard]] int pc() const noexcept { return t_.pc_; }
  void set_pc(int pc) noexcept { t_.pc_ = pc; }
  void raise(FaultKind kind) { t_.raise(kind, tile_, cycle_); }
  void halt() {
    t_.halted_ = true;
    t_.notify_scheduler();
  }
  void retire() noexcept { ++t_.stats_.instructions; }
  void emit_remote(int addr, Word value) {
    out_.push_back(RemoteWrite{tile_, addr, value});
    ++t_.stats_.remote_writes;
  }

 private:
  Tile& t_;
  int tile_;
  std::int64_t cycle_;
  std::vector<RemoteWrite>& out_;
};

/// The state the threaded engine's specializer reads directly: the
/// predecoded image it specializes and the stats its prologue bumps.
struct TileExec {
  static TileStats& stats(Tile& t) noexcept { return t.stats_; }
  static const std::vector<isa::DecodedInstr>& decoded(
      const Tile& t) noexcept {
    return t.decoded_;
  }
};

namespace core {

/// Runtime traits: every addressing/flag decision is read from the
/// DecodedInstr.  The interpreter (Tile::step) uses exactly this.
struct DynTraits {
  static constexpr bool kStatic = false;
  static constexpr isa::Opcode kOpcode = isa::Opcode::kNop;  // unused
  static constexpr bool kRemote = false;                     // unused
  static constexpr bool kUseImm = false;                     // unused
};

/// Compile-time traits for the superinstruction fast path: opcode, remote
/// destination and immediate choice folded into the instantiation; no
/// indirection, no out-of-range address fields, not illegal.  Only
/// dispatch instructions satisfying fast_eligible() through these.
template <isa::Opcode Op, bool Remote, bool UseImm>
struct FastTraits {
  static constexpr bool kStatic = true;
  static constexpr isa::Opcode kOpcode = Op;
  static constexpr bool kRemote = Remote;
  static constexpr bool kUseImm = UseImm;
};

/// True when `in` may run under FastTraits: no poisoned slot, no indirect
/// addressing anywhere and no statically out-of-range address field —
/// i.e. none of the checks FastTraits compiles out can fire.
[[nodiscard]] constexpr bool fast_eligible(
    const isa::DecodedInstr& in) noexcept {
  return !in.illegal && !in.srca_indirect && !in.srcb_indirect &&
         !in.dst_indirect && !in.srca_oob && !in.srcb_oob && !in.dst_oob &&
         in.opcode < isa::Opcode::kOpcodeCount;
}

/// Resolve a register-indirect data-memory address: validate the pointer's
/// own location, load it, validate the pointed-to address.  Returns -1
/// after raising kAddressOutOfRange on either check.
template <class View>
inline int indirect_addr(View& v, std::uint16_t field) {
  int addr = field;
  if (addr >= kDataMemWords) {
    v.raise(FaultKind::kAddressOutOfRange);
    return -1;
  }
  addr = static_cast<int>(to_signed(v.load(addr)));
  if (addr < 0 || addr >= kDataMemWords) {
    v.raise(FaultKind::kAddressOutOfRange);
    return -1;
  }
  return addr;
}

/// Execute one decoded instruction.  Returns true if it retired; false
/// when a fault was raised (the view recorded it and halted the tile).
/// The caller has already established that the tile is runnable and that
/// `in` is the instruction at the view's current pc.
template <class Traits, class View>
inline bool exec_instr(View& v, const isa::DecodedInstr& in, LinkState link) {
  using isa::Opcode;
  constexpr bool S = Traits::kStatic;
  if constexpr (!S) {
    if (in.illegal) {
      v.raise(FaultKind::kIllegalOpcode);
      return false;
    }
  }
  const Opcode op = S ? Traits::kOpcode : in.opcode;

  // --- operand fetch ---
  Word a = 0;
  const bool reads_a = S ? isa::reads_srca(Traits::kOpcode) : in.reads_srca;
  if (reads_a) {
    int ea = in.srca;
    if constexpr (!S) {
      if (in.srca_oob) {
        v.raise(FaultKind::kAddressOutOfRange);
        return false;
      }
      if (in.srca_indirect) {
        ea = indirect_addr(v, in.srca);
        if (ea < 0) return false;
      }
    }
    a = v.load(ea);
  }
  Word b = 0;
  const bool reads_b = S ? isa::reads_srcb(Traits::kOpcode) : in.reads_srcb;
  const bool use_imm = S ? Traits::kUseImm : in.use_imm;
  if (reads_b) {
    if (use_imm) {
      b = in.imm_word;
    } else {
      int eb = in.srcb;
      if constexpr (!S) {
        if (in.srcb_oob) {
          v.raise(FaultKind::kAddressOutOfRange);
          return false;
        }
        if (in.srcb_indirect) {
          eb = indirect_addr(v, in.srcb);
          if (eb < 0) return false;
        }
      }
      b = v.load(eb);
    }
  }

  // --- execute ---
  Word result = 0;
  int next_pc = v.pc() + 1;
  bool halt_after = false;
  switch (op) {
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      halt_after = true;
      break;
    case Opcode::kMov:
      result = a;
      break;
    case Opcode::kMovi:
      result = in.imm_word;
      break;
    case Opcode::kAdd:
      result = word_add(a, b);
      break;
    case Opcode::kSub:
      result = word_sub(a, b);
      break;
    case Opcode::kMul:
      result = word_mul(a, b);
      break;
    case Opcode::kAnd:
      result = a & b;
      break;
    case Opcode::kOrr:
      result = a | b;
      break;
    case Opcode::kXor:
      result = a ^ b;
      break;
    case Opcode::kShl:
      result = truncate_word(a << (to_signed(b) & 63));
      break;
    case Opcode::kShr:
      result = truncate_word((a & kWordMask) >>
                             static_cast<unsigned>(to_signed(b) & 63));
      break;
    case Opcode::kSra:
      result = from_signed(to_signed(a) >>
                           static_cast<unsigned>(to_signed(b) & 63));
      break;
    case Opcode::kCadd:
      result = word_cadd(a, b);
      break;
    case Opcode::kCsub:
      result = word_csub(a, b);
      break;
    case Opcode::kCmul:
      result = word_cmul(a, b);
      break;
    case Opcode::kBeqz:
      if (to_signed(a) == 0) next_pc = in.imm;
      break;
    case Opcode::kBnez:
      if (to_signed(a) != 0) next_pc = in.imm;
      break;
    case Opcode::kBltz:
      if (to_signed(a) < 0) next_pc = in.imm;
      break;
    case Opcode::kJmp:
      next_pc = in.imm;
      break;
    case Opcode::kMacz:
      v.acc() = acc_mac(0, a, b);
      break;
    case Opcode::kMac:
      v.acc() = acc_mac(v.acc(), a, b);
      break;
    case Opcode::kMacr:
      result = from_signed(v.acc());
      break;
    case Opcode::kOpcodeCount:
      // Unreachable: predecode marks these slots `illegal`.
      v.raise(FaultKind::kIllegalOpcode);
      return false;
  }

  // --- write back ---
  const bool writes = S ? isa::writes_dst(Traits::kOpcode) : in.writes_dst;
  if (writes) {
    const bool remote = S ? Traits::kRemote : in.dst_remote;
    if (remote) {
      if (link != LinkState::kUp) {
        v.raise(link == LinkState::kDown ? FaultKind::kLinkDown
                                         : FaultKind::kNoActiveLink);
        return false;
      }
      // Remote effective address is resolved with *local* indirection
      // (pointer lives in this tile) but addresses the neighbour's memory;
      // range is validated here, the fabric routes the value.
      int addr = in.dst;
      if constexpr (!S) {
        if (in.dst_indirect) {
          const int ea = indirect_addr(v, in.dst);
          if (ea < 0) return false;
          addr = ea;
        } else if (in.dst_oob) {
          v.raise(FaultKind::kAddressOutOfRange);
          return false;
        }
      }
      v.emit_remote(addr, result);
    } else {
      int ed = in.dst;
      if constexpr (!S) {
        if (in.dst_oob) {
          v.raise(FaultKind::kAddressOutOfRange);
          return false;
        }
        if (in.dst_indirect) {
          ed = indirect_addr(v, in.dst);
          if (ed < 0) return false;
        }
      }
      v.store(ed, truncate_word(result));
    }
  }

  v.set_pc(next_pc);
  v.retire();
  if (halt_after) v.halt();
  return true;
}

}  // namespace core
}  // namespace cgra::fabric

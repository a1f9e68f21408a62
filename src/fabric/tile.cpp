#include "fabric/tile.hpp"

#include <algorithm>

#include "fabric/step_core.hpp"
#include "isa/instruction.hpp"

namespace cgra::fabric {

using isa::DecodedInstr;
using isa::Opcode;

Tile& Tile::operator=(const Tile& other) {
  if (this == &other) return *this;
  dmem_ = other.dmem_;
  code_ = other.code_;
  decoded_ = other.decoded_;
  acc_ = other.acc_;
  pc_ = other.pc_;
  halted_ = other.halted_;
  dead_ = other.dead_;
  fault_ = other.fault_;
  stats_ = other.stats_;
  stalled_until_ = other.stalled_until_;
  // The assigned-over instruction image changed as far as any engine cache
  // keyed on this slot is concerned, whatever version the source carried.
  ++code_version_;
  // sched_ / sched_index_ deliberately untouched: the binding names a slot
  // in the owning fabric, not a property of the tile's value.
  return *this;
}

bool Tile::load(const isa::Image& image) {
  if (dead_) return false;
  if (image.inst_words() > kInstMemWords) return false;
  for (const auto& patch : image.data()) {
    if (patch.addr < 0 || patch.addr >= kDataMemWords) return false;
  }
  code_.assign(image.code().begin(), image.code().end());
  decoded_.assign(image.decoded().begin(), image.decoded().end());
  for (const auto& patch : image.data()) {
    dmem_[static_cast<std::size_t>(patch.addr)] = truncate_word(patch.value);
  }
  pc_ = 0;
  halted_ = true;  // a loaded tile awaits restart()
  fault_ = Fault{};
  ++code_version_;
  notify_scheduler();
  return true;
}

bool Tile::load_program(const isa::Program& prog) {
  return load(isa::Image(prog));
}

bool Tile::patch_data(std::span<const isa::DataPatch> patches) {
  if (dead_) return false;
  for (const auto& patch : patches) {
    if (patch.addr < 0 || patch.addr >= kDataMemWords) return false;
  }
  for (const auto& patch : patches) {
    dmem_[static_cast<std::size_t>(patch.addr)] = truncate_word(patch.value);
  }
  return true;
}

void Tile::restart(int pc) {
  if (dead_) return;
  pc_ = pc;
  halted_ = code_.empty();
  fault_ = Fault{};
  notify_scheduler();
}

void Tile::reset() {
  dmem_.fill(0);
  code_.clear();
  decoded_.clear();
  acc_ = 0;
  pc_ = 0;
  halted_ = true;
  dead_ = false;
  fault_ = Fault{};
  stats_ = TileStats{};
  stalled_until_ = 0;
  ++code_version_;
  notify_scheduler();
}

bool Tile::restore_dmem(std::span<const Word> image) {
  if (dead_ || image.size() != dmem_.size()) return false;
  std::copy(image.begin(), image.end(), dmem_.begin());
  return true;
}

bool Tile::flip_dmem_bit(int addr, int bit) {
  if (addr < 0 || addr >= kDataMemWords) return false;
  auto& word = dmem_[static_cast<std::size_t>(addr)];
  word = truncate_word(word ^ (std::uint64_t{1} << (bit % kWordBits)));
  return true;
}

bool Tile::flip_inst_bit(int index, int bit) {
  if (index < 0 || index >= code_size()) return false;
  isa::EncodedInstr raw = isa::encode(code_[static_cast<std::size_t>(index)]);
  bit %= kInstWordBits;
  if (bit < 64) {
    raw.lo ^= std::uint64_t{1} << bit;
  } else {
    raw.hi ^= static_cast<std::uint8_t>(1u << (bit - 64));
  }
  const auto decoded = isa::decode(raw);
  // An upset that lands in the opcode field may leave an undefined opcode;
  // poison the slot so executing it raises kIllegalOpcode.
  code_[static_cast<std::size_t>(index)] =
      decoded.value_or(isa::Instruction{isa::Opcode::kOpcodeCount, 0, 0, 0,
                                        0, 0});
  // Keep the flattened image in lockstep with the poked slot.
  decoded_[static_cast<std::size_t>(index)] =
      isa::predecode(code_[static_cast<std::size_t>(index)]);
  ++code_version_;
  return true;
}

void Tile::inject_fault(FaultKind kind, int tile_index, std::int64_t cycle) {
  // A dead tile keeps its latched kTileDead fault; later injections
  // (e.g. ICAP corruption of a payload aimed at it) must not mask it.
  if (dead_) return;
  raise(kind, tile_index, cycle);
}

void Tile::hard_fail(int tile_index, std::int64_t cycle) {
  raise(FaultKind::kTileDead, tile_index, cycle);
  dead_ = true;
}

void Tile::raise(FaultKind kind, int tile_index, std::int64_t cycle) {
  fault_.kind = kind;
  fault_.tile = tile_index;
  fault_.pc = pc_;
  fault_.cycle = cycle;
  halted_ = true;
  notify_scheduler();
}

bool Tile::step(int tile_index, std::int64_t cycle, LinkState link,
                std::vector<RemoteWrite>& remote_out) {
  if (halted_ || fault_.is_fault()) {
    ++stats_.cycles_halted;
    return false;
  }
  if (cycle < stalled_until_) {
    ++stats_.cycles_stalled;
    return false;
  }
  if (pc_ < 0 || pc_ >= static_cast<int>(decoded_.size())) {
    raise(FaultKind::kPcOutOfRange, tile_index, cycle);
    return false;
  }
  // The semantics live in the shared step core (step_core.hpp) so both
  // execution engines — this interpreter and the threaded
  // superinstructions — run the same body.
  const DecodedInstr& in = decoded_[static_cast<std::size_t>(pc_)];
  TileView view(*this, tile_index, cycle, remote_out);
  return core::exec_instr<core::DynTraits>(view, in, link);
}

}  // namespace cgra::fabric

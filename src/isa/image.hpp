// A prepared tile program: what a reconfiguration installs.
//
// Preparing a program assembles nothing new; it predecodes the instruction
// image once (isa::predecode_all) and keeps the code, its DecodedInstr
// records and the data patches together, immutable.  Emitters that replay
// the same program many times (an FFT plan, the JPEG pipeline artifacts)
// prepare each distinct program once and share it as ImagePtr; every
// Tile::load then copies the already-decoded records instead of decoding
// again, like the paper's runtime streaming partial bitstreams prepared
// offline.  The members are private so the code and its decoded form can
// never diverge.
#pragma once

#include <memory>
#include <vector>

#include "isa/decoded.hpp"
#include "isa/program.hpp"

namespace cgra::isa {

class Image {
 public:
  /// Prepare `prog`: copy its code and data patches and predecode the code.
  /// Labels and symbols are not kept; the ICAP streams code and data only.
  explicit Image(const Program& prog);

  [[nodiscard]] const std::vector<Instruction>& code() const noexcept {
    return code_;
  }
  [[nodiscard]] const std::vector<DecodedInstr>& decoded() const noexcept {
    return decoded_;
  }
  [[nodiscard]] const std::vector<DataPatch>& data() const noexcept {
    return data_;
  }

  /// Reconfiguration footprint, as Program::inst_words / data_words.
  [[nodiscard]] int inst_words() const noexcept {
    return static_cast<int>(code_.size());
  }
  [[nodiscard]] int data_words() const noexcept {
    return static_cast<int>(data_.size());
  }

  /// A mutable copy of the code and data (the ICAP fault path streams and
  /// may corrupt one).
  [[nodiscard]] Program program() const;

 private:
  std::vector<Instruction> code_;
  std::vector<DecodedInstr> decoded_;
  std::vector<DataPatch> data_;
};

using ImagePtr = std::shared_ptr<const Image>;

/// Prepare `prog` for sharing.
[[nodiscard]] ImagePtr prepare(const Program& prog);

}  // namespace cgra::isa

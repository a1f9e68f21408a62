// Epoch configurations.
//
// An application's lifetime is a sequence of epochs; each epoch is defined
// by a configuration C_i: the active links between tiles and the programs /
// data contents of the tiles (Sec. 2 of the paper).  A transition C_i -> C_j
// reloads only what differs: changed links (cost L each) and the
// instruction/data words of reprogrammed tiles (ICAP at 180 MB/s).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "interconnect/link.hpp"
#include "isa/image.hpp"
#include "isa/program.hpp"

namespace cgra::config {

/// What one tile receives at an epoch boundary.
struct TileUpdate {
  /// Full reprogram: the prepared image installed by Tile::load (replaces
  /// instruction memory, applies its data patches).  Null means "no
  /// instruction reload".  Emitters share one image between every update
  /// that carries the same program, so a reload copies decoded records
  /// and decodes nothing.
  isa::ImagePtr program;

  /// Additional data-only patches (e.g. new twiddle factors, new copy
  /// source/destination variables).
  std::vector<isa::DataPatch> patches;

  /// Restart the tile's PC even if nothing was reloaded (reusing resident
  /// instructions for the next epoch — the "pinned" case).
  bool restart = true;

  /// Reconfiguration payload in ICAP words.
  [[nodiscard]] int inst_words() const noexcept {
    return program ? program->inst_words() : 0;
  }
  [[nodiscard]] int data_words() const noexcept {
    return (program ? program->data_words() : 0) +
           static_cast<int>(patches.size());
  }
};

/// One epoch: link configuration plus per-tile updates.
struct EpochConfig {
  std::string name;
  interconnect::LinkConfig links;
  std::map<int, TileUpdate> tiles;  ///< Keyed by linear tile index.
};

}  // namespace cgra::config

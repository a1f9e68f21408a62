#include "mapping/schedule_compiler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "interconnect/routing.hpp"
#include "isa/assembler.hpp"

namespace cgra::mapping {

using config::EpochConfig;
using config::TileUpdate;
using interconnect::Direction;
using interconnect::LinkConfig;

namespace {

/// A copy-loop program: `words` words from src_base to the neighbour's
/// dst_base (remote) with pointers in the transit control slots.
isa::ImagePtr copy_program(int words, int src_base, int dst_base,
                           int ctrl_base) {
  std::ostringstream os;
  os << ".equ ps, " << ctrl_base << "\n"
     << ".equ pd, " << ctrl_base + 1 << "\n"
     << ".equ cnt, " << ctrl_base + 2 << "\n"
     << "  movi ps, #" << src_base << "\n"
     << "  movi pd, #" << dst_base << "\n"
     << "  movi cnt, #" << words << "\n"
     << "loop:\n"
     << "  mov !pd*, ps*\n"
     << "  add ps, ps, #1\n"
     << "  add pd, pd, #1\n"
     << "  sub cnt, cnt, #1\n"
     << "  bnez cnt, loop\n"
     << "  halt\n";
  auto result = isa::assemble(os.str());
  if (!result.ok()) {
    // Generated internally: a failure is a compiler bug, not user input.
    std::fprintf(stderr, "schedule compiler produced bad assembly: %s\n",
                 result.status.message().c_str());
    std::abort();
  }
  return isa::prepare(result.program);
}

}  // namespace

CompiledSchedule compile_item_schedule(const procnet::ProcessNetwork& net,
                                       const Binding& binding,
                                       const Placement& placement,
                                       const ProgramLibrary& library,
                                       const CompileOptions& options) {
  CompiledSchedule out;
  if (const Status s = binding.validate(net); !s.ok()) {
    out.status = s;
    return out;
  }
  if (const Status s = placement.validate(binding); !s.ok()) {
    out.status = s;
    return out;
  }
  const LinkConfig mesh = placement.mesh();
  const LinkConfig idle_links(placement.mesh_rows, placement.mesh_cols);
  // The transit control slots live right after the transit block.
  const int transit_ctrl = options.transit_base + 64;
  if (transit_ctrl + 3 > kDataMemWords) {
    out.status = Status::error("transit region exceeds data memory");
    return out;
  }

  auto fail = [&](Status why) {
    out.status = std::move(why);
    out.epochs.clear();
    out.meta.clear();
    return out;
  };

  // Dataflow-driven emission: processes run in topological order, and every
  // cross-tile edge gets its own routed transfer right before its consumer
  // runs.  For a contiguous pipeline binding this degenerates to the classic
  // group-then-transfer chain, but it is also correct for the bindings the
  // automatic mapper emits (src/mapper/), where a group may host
  // non-adjacent pipeline stages (e.g. {shift, quantize, zigzag} on one
  // tile with the replicated DCT split out).
  const std::vector<int> owner = owner_of_processes(net, binding);
  const std::vector<int> order = procnet::topological_order(net);
  std::vector<bool> ran(static_cast<std::size_t>(net.size()), false);
  for (const int pid : order) {
    const auto it = library.find(pid);
    if (it == library.end()) {
      return fail(Status::errorf("no program for process '%s'",
                                 net.process(pid).name.c_str()));
    }
    const CompiledProcess& impl = it->second;
    if (impl.program.inst_words() > kInstMemWords) {
      return fail(Status::errorf(
          "program too large for process '%s': %d words > %d",
          net.process(pid).name.c_str(), impl.program.inst_words(),
          kInstMemWords));
    }
    if (impl.in_base + impl.words > kDataMemWords ||
        impl.out_base + impl.words > kDataMemWords) {
      return fail(Status::errorf("block region out of range for '%s'",
                                 net.process(pid).name.c_str()));
    }
    const int tile =
        placement.tile_of[static_cast<std::size_t>(owner[
            static_cast<std::size_t>(pid)])].front();

    // --- routed transfer for every inbound cross-tile edge ---
    for (const auto& e : net.edges()) {
      if (e.to != pid) continue;
      if (!ran[static_cast<std::size_t>(e.from)]) {
        return fail(Status::errorf(
            "edge '%s' -> '%s' closes a cycle: one pipeline item cannot "
            "flow through it",
            net.process(e.from).name.c_str(), net.process(pid).name.c_str()));
      }
      // The producer ran, so its library entry already passed the checks.
      const CompiledProcess& producer = library.at(e.from);
      const int from_tile =
          placement.tile_of[static_cast<std::size_t>(owner[
              static_cast<std::size_t>(e.from)])].front();
      if (from_tile == tile) {
        if (producer.out_base != impl.in_base) {
          return fail(Status::errorf(
              "in-tile chain mismatch: '%s' expects its input where '%s' "
              "did not leave it",
              net.process(pid).name.c_str(),
              net.process(e.from).name.c_str()));
        }
        continue;
      }
      if (producer.words != impl.words) {
        return fail(Status::errorf(
            "block size mismatch between groups: %d words out, %d words in",
            producer.words, impl.words));
      }

      const auto route =
          options.avoid_tiles.empty()
              ? interconnect::shortest_route(mesh, from_tile, tile)
              : interconnect::shortest_route_avoiding(mesh, from_tile, tile,
                                                      options.avoid_tiles);
      if (!route || route->length() == 0) {
        return fail(Status::errorf(
            "no route from tile %d to tile %d (same tile, off the mesh, or "
            "blocked by failed tiles)",
            from_tile, tile));
      }
      int hop_from = from_tile;
      for (int h = 0; h < route->length(); ++h) {
        const Direction dir = route->hops[static_cast<std::size_t>(h)];
        const bool first = h == 0;
        const bool last = h + 1 == route->length();
        const int src_base = first ? producer.out_base : options.transit_base;
        const int dst_base = last ? impl.in_base : options.transit_base;
        EpochConfig hop;
        hop.name = "route-" + net.process(e.from).name + "-h" +
                   std::to_string(h);
        hop.links = idle_links;
        if (!hop.links.set_output(hop_from, dir)) {
          return fail(Status::errorf("route leaves the mesh at tile %d",
                                     hop_from));
        }
        TileUpdate update;
        update.program =
            copy_program(producer.words, src_base, dst_base, transit_ctrl);
        hop.tiles[hop_from] = std::move(update);
        out.epochs.push_back(std::move(hop));
        // The cp loop retires 5 instructions per word plus setup/halt.
        out.meta.push_back({-1, hop_from, 5 * producer.words + 16});
        hop_from = *mesh.neighbor(hop_from, dir);
      }
    }

    // --- one epoch for the process activation itself ---
    EpochConfig epoch;
    epoch.name = "run-" + net.process(pid).name;
    epoch.links = idle_links;
    TileUpdate update;
    update.program = isa::prepare(impl.program);
    update.patches = impl.constants;
    epoch.tiles[tile] = std::move(update);
    out.epochs.push_back(std::move(epoch));
    out.meta.push_back({pid, tile, net.process(pid).work_cycles_per_item()});
    ran[static_cast<std::size_t>(pid)] = true;
  }
  return out;
}

std::vector<ProcessCycles> attribute_process_cycles(
    const CompiledSchedule& sched, const config::Timeline& timeline) {
  std::map<int, ProcessCycles> buckets;
  const std::size_t n =
      std::min(sched.meta.size(), timeline.epoch_cycles.size());
  for (std::size_t i = 0; i < n; ++i) {
    const EpochMeta& m = sched.meta[i];
    ProcessCycles& b = buckets[m.process];
    b.process = m.process;
    b.cycles += timeline.epoch_cycles[i];
    b.predicted_cycles += m.predicted_cycles;
    b.epochs += 1;
  }
  std::vector<ProcessCycles> rows;
  rows.reserve(buckets.size());
  for (auto& [pid, bucket] : buckets) rows.push_back(bucket);
  return rows;
}

}  // namespace cgra::mapping

#include "mapping/binding.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>
#include <vector>

namespace cgra::mapping {

using procnet::Process;
using procnet::ProcessNetwork;

Status Binding::validate(const ProcessNetwork& net) const {
  std::vector<int> seen(static_cast<std::size_t>(net.size()), 0);
  for (const auto& g : groups) {
    if (g.replication < 1) return Status::error("replication < 1");
    if (g.procs.empty()) return Status::error("empty tile group");
    for (int p : g.procs) {
      if (p < 0 || p >= net.size()) {
        return Status::error("group references unknown process");
      }
      if (++seen[static_cast<std::size_t>(p)] > 1) {
        return Status::errorf("process '%s' bound twice",
                              net.process(p).name.c_str());
      }
    }
    if (g.replication > 1) {
      for (int p : g.procs) {
        if (!net.process(p).replicable) {
          return Status::errorf("process '%s' is not replicable",
                                net.process(p).name.c_str());
        }
      }
    }
  }
  for (int i = 0; i < net.size(); ++i) {
    if (seen[static_cast<std::size_t>(i)] == 0) {
      return Status::errorf("process '%s' unbound",
                            net.process(i).name.c_str());
    }
  }
  return Status{};
}

std::string Binding::describe(const ProcessNetwork& net) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (i != 0) os << "  ";
    os << "T" << i << ":";
    for (int p : groups[i].procs) os << ' ' << net.process(p).name;
    if (groups[i].replication > 1) os << " (x" << groups[i].replication << ")";
  }
  return os.str();
}

namespace {

/// Groups of up to this many processes (every network the repo maps) are
/// evaluated without touching the heap.
constexpr std::size_t kInlineGroup = 32;

/// Pinning decision for one group: pin processes largest-first while the
/// instruction memory allows; equal sizes keep group order (a stable
/// insertion sort, which is what std::sort did on groups of <= 16).
/// `order` is scratch for procs.size() positions; `pinned` receives one
/// flag per position of `procs`.
void pin_selection(const ProcessNetwork& net, const std::vector<int>& procs,
                   int imem_words, int* order, int* pinned) {
  auto insts_at = [&](int pos) {
    return net.process(procs[static_cast<std::size_t>(pos)]).insts;
  };
  const int n = static_cast<int>(procs.size());
  for (int i = 0; i < n; ++i) {
    int j = i;
    for (; j > 0 && insts_at(order[j - 1]) < insts_at(i); --j) {
      order[j] = order[j - 1];
    }
    order[j] = i;
    pinned[i] = 0;
  }
  int used = 0;
  for (int k = 0; k < n; ++k) {
    const int insts = insts_at(order[k]);
    if (used + insts <= imem_words) {
      pinned[order[k]] = 1;
      used += insts;
    }
  }
}

GroupEval evaluate_group(const ProcessNetwork& net,
                         const std::vector<int>& procs,
                         const CostParams& params) {
  GroupEval eval;
  for (int p : procs) {
    const Process& proc = net.process(p);
    eval.work_ns += cycles_to_ns(proc.work_cycles_per_item());
    eval.total_insts += proc.insts;
    if (proc.data_words() > params.dmem_words) eval.data_fits = false;
  }
  if (procs.size() <= 1) {
    // Resident single process: no per-item context switching.
    eval.pinned_insts = eval.total_insts;
    eval.all_pinned = eval.total_insts <= params.imem_words;
    return eval;
  }
  // Scratch: the pin order, then one pinned flag per process.
  const std::size_t n = procs.size();
  std::array<int, 2 * kInlineGroup> inline_scratch{};
  std::vector<int> heap_scratch;
  int* order = inline_scratch.data();
  if (n > kInlineGroup) {
    heap_scratch.resize(2 * n);
    order = heap_scratch.data();
  }
  int* pinned = order + n;
  if (params.allow_pinning) {
    pin_selection(net, procs, params.imem_words, order, pinned);
  } else {
    std::fill(pinned, pinned + n, 0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Process& proc = net.process(procs[i]);
    const double activations = proc.invocations_per_item;
    eval.reconfig_ns +=
        activations * params.icap.data_reload_ns(proc.data3);
    if (pinned[i] != 0) {
      eval.pinned_insts += proc.insts;
    } else {
      eval.all_pinned = false;
      eval.reconfig_ns += activations * params.icap.inst_reload_ns(proc.insts);
    }
  }
  return eval;
}

}  // namespace

Nanoseconds group_busy_ns(const ProcessNetwork& net,
                          const std::vector<int>& procs,
                          const CostParams& params) {
  return evaluate_group(net, procs, params).busy_ns();
}

BindingEval evaluate(const ProcessNetwork& net, const Binding& binding,
                     const CostParams& params) {
  BindingEval out;
  out.tile_count = binding.tile_count();
  for (const auto& g : binding.groups) {
    GroupEval ge = evaluate_group(net, g.procs, params);
    if (g.procs.size() > 1) out.needs_reconfig = true;
    if (g.replication > 1) out.needs_relink = true;
    const Nanoseconds effective =
        ge.busy_ns() / static_cast<double>(g.replication);
    out.ii_ns = std::max(out.ii_ns, effective);
    out.groups.push_back(std::move(ge));
  }
  if (out.ii_ns > 0.0) {
    out.items_per_sec = 1e9 / out.ii_ns;
    double util_sum = 0.0;
    for (std::size_t i = 0; i < binding.groups.size(); ++i) {
      const auto& g = binding.groups[i];
      const Nanoseconds effective =
          out.groups[i].busy_ns() / static_cast<double>(g.replication);
      util_sum += static_cast<double>(g.replication) * (effective / out.ii_ns);
    }
    out.avg_utilization =
        out.tile_count > 0 ? util_sum / out.tile_count : 0.0;
  }
  return out;
}

std::vector<int> owner_of_processes(const ProcessNetwork& net,
                                    const Binding& binding) {
  std::vector<int> owner(static_cast<std::size_t>(net.size()), -1);
  for (std::size_t g = 0; g < binding.groups.size(); ++g) {
    for (const int p : binding.groups[g].procs) {
      owner[static_cast<std::size_t>(p)] = static_cast<int>(g);
    }
  }
  return owner;
}

Binding all_on_one_tile(const ProcessNetwork& net) {
  Binding b;
  TileGroup g;
  g.procs.resize(static_cast<std::size_t>(net.size()));
  std::iota(g.procs.begin(), g.procs.end(), 0);
  b.groups.push_back(std::move(g));
  return b;
}

}  // namespace cgra::mapping

#include "fabric/fabric.hpp"

#include <algorithm>
#include <atomic>

#include "fabric/exec_access.hpp"

namespace cgra::fabric {

namespace {
// Installed once at startup (CLI flag / build default static initializer),
// before any thread runs a fabric; atomic so concurrent fabric creation in
// worker pools reads it without a race.
std::atomic<EngineFactory> g_engine_factory{nullptr};
}  // namespace

void set_default_engine_factory(EngineFactory factory) noexcept {
  g_engine_factory.store(factory, std::memory_order_release);
}

EngineFactory default_engine_factory() noexcept {
  return g_engine_factory.load(std::memory_order_acquire);
}

Fabric::Fabric(int rows, int cols)
    : links_(rows, cols),
      tiles_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)),
      failed_links_(tiles_.size(), 0),
      class_(tiles_.size(), TileClass::kHalted),
      in_active_(tiles_.size(), 0),
      halted_count_(static_cast<int>(tiles_.size())),
      settled_(tiles_.size(), 0),
      link_state_(tiles_.size(), LinkState::kNone),
      link_target_(tiles_.size(), -1) {
  for (int i = 0; i < tile_count(); ++i) {
    tiles_[static_cast<std::size_t>(i)].bind_scheduler(this, i);
  }
}

Fabric::Fabric(Fabric&& other) noexcept { *this = std::move(other); }

Fabric& Fabric::operator=(Fabric&& other) noexcept {
  if (this == &other) return *this;
  links_ = std::move(other.links_);
  tiles_ = std::move(other.tiles_);
  remote_buffer_ = std::move(other.remote_buffer_);
  owned_engine_ = std::move(other.owned_engine_);
  engine_ = other.engine_;
  engine_resolved_ = other.engine_resolved_;
  other.engine_ = nullptr;
  failed_links_ = std::move(other.failed_links_);
  cycle_ = other.cycle_;
  tracer_ = other.tracer_;
  metrics_ = other.metrics_;
  m_cycles_ = other.m_cycles_;
  m_retired_ = other.m_retired_;
  m_remote_writes_ = other.m_remote_writes_;
  m_faults_ = other.m_faults_;
  class_ = std::move(other.class_);
  active_ = std::move(other.active_);
  in_active_ = std::move(other.in_active_);
  wake_ = std::move(other.wake_);
  halted_count_ = other.halted_count_;
  settled_ = std::move(other.settled_);
  link_state_ = std::move(other.link_state_);
  link_target_ = std::move(other.link_target_);
  stepping_ = other.stepping_;
  active_dirty_ = other.active_dirty_;
  // Tiles carry a back-pointer to their scheduler: point them here.
  for (int i = 0; i < static_cast<int>(tiles_.size()); ++i) {
    tiles_[static_cast<std::size_t>(i)].bind_scheduler(this, i);
  }
  return *this;
}

void Fabric::reset() {
  links_ = interconnect::LinkConfig(rows(), cols());
  remote_buffer_.clear();
  std::fill(failed_links_.begin(), failed_links_.end(), 0);
  cycle_ = 0;
  for (auto& t : tiles_) t.reset();
  // The per-tile notifications above ran against stale scheduler state;
  // rebuild it wholesale to the construction-time invariant.
  std::fill(class_.begin(), class_.end(), TileClass::kHalted);
  active_.clear();
  std::fill(in_active_.begin(), in_active_.end(), 0);
  wake_ = {};
  halted_count_ = tile_count();
  std::fill(settled_.begin(), settled_.end(), 0);
  std::fill(link_state_.begin(), link_state_.end(), LinkState::kNone);
  std::fill(link_target_.begin(), link_target_.end(), -1);
  stepping_ = false;
  active_dirty_ = false;
}

void Fabric::refresh_link_cache() {
  for (int i = 0; i < tile_count(); ++i) {
    const auto dst = links_.target(i);
    const auto k = static_cast<std::size_t>(i);
    link_target_[k] = dst.has_value() ? *dst : -1;
    link_state_[k] = !dst.has_value() ? LinkState::kNone
                     : failed_links_[k] != 0 ? LinkState::kDown
                                             : LinkState::kUp;
  }
}

void Fabric::settle_tile(int tile, std::int64_t boundary) {
  const auto k = static_cast<std::size_t>(tile);
  const std::int64_t pending = boundary - settled_[k];
  if (pending <= 0) return;
  switch (class_[k]) {
    case TileClass::kStalled:
      tiles_[k].account_idle_cycles(pending, 0);
      break;
    case TileClass::kHalted:
      tiles_[k].account_idle_cycles(0, pending);
      break;
    case TileClass::kActive:
      // Stepped every cycle while active: stats are already exact.
      break;
  }
  settled_[k] = boundary;
}

void Fabric::settle_all() {
  for (int i = 0; i < tile_count(); ++i) {
    if (class_[static_cast<std::size_t>(i)] != TileClass::kActive) {
      settle_tile(i, cycle_);
    }
  }
}

void Fabric::insert_active(int tile) {
  const auto k = static_cast<std::size_t>(tile);
  if (in_active_[k] != 0) return;
  active_.insert(std::lower_bound(active_.begin(), active_.end(), tile), tile);
  in_active_[k] = 1;
}

void Fabric::remove_active(int tile) {
  const auto k = static_cast<std::size_t>(tile);
  if (in_active_[k] == 0) return;
  const auto it = std::lower_bound(active_.begin(), active_.end(), tile);
  if (it != active_.end() && *it == tile) active_.erase(it);
  in_active_[k] = 0;
}

void Fabric::compact_active() {
  std::size_t w = 0;
  for (const int t : active_) {
    if (class_[static_cast<std::size_t>(t)] == TileClass::kActive) {
      active_[w++] = t;
    } else {
      in_active_[static_cast<std::size_t>(t)] = 0;
    }
  }
  active_.resize(w);
  active_dirty_ = false;
}

void Fabric::tile_state_changed(int tile) {
  const auto k = static_cast<std::size_t>(tile);
  const Tile& t = tiles_[k];
  const TileClass nc = t.halted()                  ? TileClass::kHalted
                       : t.stalled_until() > cycle_ ? TileClass::kStalled
                                                     : TileClass::kActive;
  const TileClass oc = class_[k];
  if (nc == oc) {
    // Same class, but a stalled tile's deadline may have moved: keep the
    // wake queue's always-one-valid-entry invariant.
    if (nc == TileClass::kStalled) wake_.emplace(t.stalled_until(), tile);
    return;
  }
  // While a cycle sweep is in flight the step machinery has already
  // accounted the current cycle (retired or count_fault_cycle), so the
  // settlement boundary moves past it; between cycles it is cycle_ itself.
  const std::int64_t boundary = cycle_ + (stepping_ ? 1 : 0);
  settle_tile(tile, boundary);  // settles under the *old* class
  class_[k] = nc;
  settled_[k] = boundary;
  if (oc == TileClass::kHalted) --halted_count_;
  if (nc == TileClass::kHalted) ++halted_count_;
  if (oc == TileClass::kActive) {
    if (stepping_) {
      active_dirty_ = true;  // compacted right after the sweep
    } else {
      remove_active(tile);
    }
  }
  if (nc == TileClass::kActive) insert_active(tile);
  if (nc == TileClass::kStalled) wake_.emplace(t.stalled_until(), tile);
}

void Fabric::process_wakes() {
  while (!wake_.empty() && wake_.top().first <= cycle_) {
    const auto [wc, t] = wake_.top();
    wake_.pop();
    const auto k = static_cast<std::size_t>(t);
    if (class_[k] != TileClass::kStalled) continue;       // stale entry
    if (tiles_[k].stalled_until() > cycle_) continue;     // superseded
    settle_tile(t, cycle_);  // close out the stalled interval
    class_[k] = TileClass::kActive;
    insert_active(t);
  }
}

std::int64_t Fabric::next_wake_cycle() {
  while (!wake_.empty()) {
    const auto [wc, t] = wake_.top();
    const auto k = static_cast<std::size_t>(t);
    // Lazy deletion: drop entries whose tile left the stalled class or
    // whose deadline was superseded by a later stall_until().
    if (class_[k] != TileClass::kStalled || tiles_[k].stalled_until() != wc) {
      wake_.pop();
      continue;
    }
    return wc;
  }
  return -1;
}

int Fabric::step_cycle() {
  // The per-cycle sweep (trace events, fault accounting, remote-write
  // commit order, cycle/metrics bumps) is shared with the pluggable
  // execution engines via ExecAccess::run_cycle; only the per-tile
  // dispatch below is interpreter-specific.
  return ExecAccess::run_cycle(*this, [this](Tile& tile, int i, int) {
    return tile.step(i, cycle_, link_state_[static_cast<std::size_t>(i)],
                     remote_buffer_);
  });
}

void Fabric::resolve_engine() {
  engine_resolved_ = true;
  if (const EngineFactory factory = default_engine_factory()) {
    owned_engine_ = factory();
    engine_ = owned_engine_.get();
  }
}

void Fabric::idle_until(std::int64_t cycle) {
  if (cycle <= cycle_ || !all_halted()) return;
  if (metrics_ != nullptr) metrics_->add(m_cycles_, cycle - cycle_);
  cycle_ = cycle;
  settle_all();
}

int Fabric::step() {
  if (!engine_resolved_) resolve_engine();
  if (engine_ != nullptr) return engine_->step(*this);
  return step_interpreter();
}

int Fabric::step_interpreter() {
  ExecAccess::begin(*this);
  process_wakes();
  const int retired = step_cycle();
  settle_all();  // public boundary: idle tiles' stats catch up to cycle_
  return retired;
}

void Fabric::attach_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    m_cycles_ = metrics_->counter("fabric.cycles");
    m_retired_ = metrics_->counter("fabric.retired");
    m_remote_writes_ = metrics_->counter("fabric.remote_writes");
    m_faults_ = metrics_->counter("fabric.faults");
  } else {
    m_cycles_ = m_retired_ = m_remote_writes_ = m_faults_ = {};
  }
}

RunResult Fabric::run(std::int64_t max_cycles) {
  if (!engine_resolved_) resolve_engine();
  if (engine_ != nullptr) return engine_->run(*this, max_cycles);
  return run_interpreter(max_cycles);
}

RunResult Fabric::run_interpreter(std::int64_t max_cycles) {
  RunResult result;
  ExecAccess::begin(*this);
  while (result.cycles < max_cycles) {
    if (all_halted()) break;
    process_wakes();
    if (active_.empty()) {
      // Only stalled tiles remain: fast-forward to the next wake event
      // (bounded by the cycle budget).  The skipped cycles are real
      // simulated time — they count into the result, the cycle counter and
      // the cycle metric; the stalled tiles' stats settle lazily.
      const std::int64_t next = next_wake_cycle();
      if (next < 0) break;  // unreachable: stalled tiles imply a wake entry
      const std::int64_t skip =
          std::min(next - cycle_, max_cycles - result.cycles);
      cycle_ += skip;
      result.cycles += skip;
      if (metrics_ != nullptr) metrics_->add(m_cycles_, skip);
      continue;
    }
    step_cycle();
    ++result.cycles;
  }
  settle_all();
  result.all_halted = all_halted();
  result.faults = faults();
  return result;
}

std::vector<Fault> Fabric::faults() const {
  std::vector<Fault> out;
  for (const auto& t : tiles_) {
    if (t.faulted()) out.push_back(t.fault());
  }
  return out;
}

std::vector<int> Fabric::dead_tiles() const {
  std::vector<int> out;
  for (int i = 0; i < tile_count(); ++i) {
    if (tiles_[static_cast<std::size_t>(i)].dead()) out.push_back(i);
  }
  return out;
}

}  // namespace cgra::fabric

#include "fabric/trace.hpp"

#include <algorithm>
#include <sstream>

namespace cgra::fabric {

const char* trace_event_kind_name(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kRetire: return "retire";
    case TraceEventKind::kRemoteWrite: return "remote";
    case TraceEventKind::kHalt: return "halt";
    case TraceEventKind::kFault: return "fault";
    case TraceEventKind::kRecovery: return "recovery";
  }
  return "?";
}

const char* recovery_action_name(RecoveryAction a) noexcept {
  switch (a) {
    case RecoveryAction::kIcapRetry: return "icap-retry";
    case RecoveryAction::kRollback: return "rollback";
    case RecoveryAction::kRebalance: return "rebalance";
    case RecoveryAction::kGiveUp: return "give-up";
  }
  return "?";
}

void Tracer::record(const TraceEvent& ev) {
  if (ev.kind == TraceEventKind::kRetire ||
      ev.kind == TraceEventKind::kHalt) {
    if (ev.tile >= static_cast<int>(histogram_.size())) {
      histogram_.resize(static_cast<std::size_t>(ev.tile) + 1, {});
    }
    histogram_[static_cast<std::size_t>(ev.tile)]
              [static_cast<std::size_t>(ev.opcode)] += 1;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  ++dropped_;
  if (capacity_ == 0) return;
  ring_[head_] = ev;
  head_ = (head_ + 1) % capacity_;
}

const std::vector<TraceEvent>& Tracer::events() {
  if (head_ != 0) {
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
  }
  return ring_;
}

std::int64_t Tracer::opcode_count(int tile, isa::Opcode op) const {
  if (tile < 0 || tile >= static_cast<int>(histogram_.size())) return 0;
  return histogram_[static_cast<std::size_t>(tile)]
                   [static_cast<std::size_t>(op)];
}

std::int64_t Tracer::tile_retirements(int tile) const {
  if (tile < 0 || tile >= static_cast<int>(histogram_.size())) return 0;
  std::int64_t total = 0;
  for (const auto count : histogram_[static_cast<std::size_t>(tile)]) {
    total += count;
  }
  return total;
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  histogram_.clear();
  dropped_ = 0;
}

std::string Tracer::dump(std::size_t max_lines) const {
  std::ostringstream os;
  const std::size_t n = ring_.size();
  const std::size_t start = n > max_lines ? n - max_lines : 0;
  for (std::size_t i = start; i < n; ++i) {
    const auto& ev = ring_[(head_ + i) % n];
    os << "[" << ev.cycle << "] t" << ev.tile << " "
       << trace_event_kind_name(ev.kind);
    switch (ev.kind) {
      case TraceEventKind::kRetire:
      case TraceEventKind::kHalt:
      case TraceEventKind::kFault:
        os << " pc=" << ev.pc << " " << isa::mnemonic(ev.opcode);
        break;
      case TraceEventKind::kRemoteWrite:
        os << " -> t" << ev.dst_tile << "[" << ev.addr
           << "] = " << word_to_hex(ev.value);
        break;
      case TraceEventKind::kRecovery:
        os << " " << recovery_action_name(ev.action) << " attempt "
           << ev.attempt;
        break;
    }
    os << '\n';
  }
  if (dropped_ > 0) {
    os << "(" << dropped_ << " earlier events dropped)\n";
  }
  return os.str();
}

}  // namespace cgra::fabric

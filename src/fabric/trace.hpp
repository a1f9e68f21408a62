// Execution tracing for the fabric simulator.
//
// A Tracer attached to a Fabric records per-cycle events — instruction
// retirements, remote writes, halts and faults — into a bounded ring
// buffer, plus per-tile per-opcode histograms that never drop.  Used by
// the debugging workflow (examples/remorph_asm --trace) and by tests that
// assert on execution order rather than only on final memory state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/word.hpp"
#include "isa/instruction.hpp"

namespace cgra::fabric {

/// What happened.
enum class TraceEventKind : std::uint8_t {
  kRetire,       ///< An instruction retired.
  kRemoteWrite,  ///< A value crossed a link (recorded at commit).
  kHalt,         ///< The tile executed halt.
  kFault,        ///< The tile faulted.
  kRecovery,     ///< The recovery layer acted (retry, rollback, rebalance).
};

const char* trace_event_kind_name(TraceEventKind k) noexcept;

/// Recovery actions recorded as kRecovery events.
enum class RecoveryAction : std::uint8_t {
  kIcapRetry,     ///< Corrupted ICAP transfer scrubbed and re-streamed.
  kRollback,      ///< Data memories rolled back to an epoch checkpoint.
  kRebalance,     ///< Work remapped onto the surviving tiles.
  kGiveUp,        ///< Recovery exhausted its budget; fault stands.
};

const char* recovery_action_name(RecoveryAction a) noexcept;

/// One recorded event.
struct TraceEvent {
  std::int64_t cycle = 0;
  TraceEventKind kind = TraceEventKind::kRetire;
  int tile = 0;
  int pc = 0;                     ///< Retire/halt/fault: the instruction PC.
  isa::Opcode opcode = isa::Opcode::kNop;
  int dst_tile = -1;              ///< Remote writes: destination tile.
  int addr = -1;                  ///< Remote writes: destination address.
  Word value = 0;                 ///< Remote writes: the value.
  RecoveryAction action = RecoveryAction::kIcapRetry;  ///< kRecovery only.
  int attempt = 0;                ///< kRecovery: retry attempt number.
};

/// Bounded event recorder with unbounded counters.
class Tracer {
 public:
  /// Keep at most `capacity` events (oldest dropped first).
  explicit Tracer(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// O(1): once the buffer is full the newest event overwrites the oldest.
  void record(const TraceEvent& ev);

  /// The retained events, oldest first.  Non-const because it unwraps the
  /// ring in place: one O(capacity) rotation after records have wrapped,
  /// O(1) otherwise.  The reference is invalid after the next record().
  [[nodiscard]] const std::vector<TraceEvent>& events();
  /// Events discarded because the buffer was full.
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }

  /// Total retirements of `op` on `tile` (never dropped).
  [[nodiscard]] std::int64_t opcode_count(int tile, isa::Opcode op) const;
  /// Total retirements on `tile`.
  [[nodiscard]] std::int64_t tile_retirements(int tile) const;

  void clear();

  /// Human-readable dump of the most recent `max_lines` events.
  [[nodiscard]] std::string dump(std::size_t max_lines = 64) const;

 private:
  std::size_t capacity_;
  /// Ring storage: grows to capacity_, then wraps; ring_[head_] is the
  /// oldest event.
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::int64_t dropped_ = 0;
  /// histogram_[tile][opcode]; grown on demand.
  std::vector<std::array<std::int64_t,
                         static_cast<std::size_t>(isa::Opcode::kOpcodeCount)>>
      histogram_;
};

}  // namespace cgra::fabric

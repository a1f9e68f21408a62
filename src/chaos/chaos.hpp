// Deterministic chaos injection for the serving stack.
//
// The faults layer (src/faults/) scripts *hardware* failure against a
// fabric; this layer generalises the same idea — a seeded, replayable
// plan of failures — to the net/service boundary.  A ChaosPlan is a list
// of rules, each naming a Hook (a failure point compiled into the
// server, client, service and pool), the invocation on which it first
// fires, how often it repeats, and what it does (reset a connection,
// corrupt a frame byte, crash a worker thread, fail a pool lease, ...).
//
// Determinism contract: every random choice (which byte, which bit,
// which tile) flows from the plan seed through per-rule SplitMix64
// streams, so a plan replays the same faults at the same hook
// invocations run after run.  Under concurrency the *assignment* of a
// firing to a caller depends on thread interleaving, but the invariants
// the chaos tests assert (zero lost replies, bit-identical results) are
// interleaving-independent.
//
// Zero cost when disabled: every hook site calls chaos::decide(inj, h)
// which is a single null-pointer test when no injector is wired.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "obs/metrics.hpp"

namespace cgra::obs {
class Tracer;
}  // namespace cgra::obs

namespace cgra::chaos {

/// Named failure points.  Each is compiled into exactly one layer:
/// socket-level hooks live in net/server + net/client, frame-level hooks
/// on the send paths, service-level hooks in service/service +
/// service/fabric_pool.
enum class Hook : std::uint8_t {
  // --- socket level (net) ---
  kAccept = 0,     ///< Server accept: kFail closes the fresh connection.
  kServerRead,     ///< Before the reader waits for a frame: kReset /
                   ///< kDelay (read stall).
  kServerWrite,    ///< Before the writer sends a reply: kReset, kDelay,
                   ///< kPartialWrite (n bytes then reset).
  kClientConnect,  ///< Client connect attempt: kFail refuses it.
  kClientRecv,     ///< Before the client reads a reply: kReset.
  // --- frame level (wire bytes on the send path) ---
  kServerFrame,    ///< Outbound reply frame: kCorruptByte / kTruncate /
                   ///< kDelay.
  kClientFrame,    ///< Outbound request frame: kCorruptByte / kTruncate /
                   ///< kDelay.
  // --- service level ---
  kWorkerCrash,    ///< Worker thread dies before executing its batch
                   ///< (kCrash); the service must resume the jobs.
  kPoolLease,      ///< FabricPool::acquire: kFail yields an invalid lease.
  kCachePoison,    ///< ArtifactCache lookup: kFail evicts the entry first
                   ///< (forces a rebuild — poison that must not change
                   ///< results).
  kQueueStall,     ///< Batch dequeue: kDelay stalls the worker.
  kFabricPoison,   ///< Leased fabric before a job runs: kKillTile.
};

inline constexpr int kHookCount = static_cast<int>(Hook::kFabricPoison) + 1;

[[nodiscard]] const char* hook_name(Hook hook) noexcept;

/// What a firing rule does at its hook point.
enum class Action : std::uint8_t {
  kNone = 0,
  kFail,          ///< Fail the operation (close/refuse/evict).
  kReset,         ///< Tear the connection down immediately.
  kDelay,         ///< Stall for `a` milliseconds, then proceed.
  kCorruptByte,   ///< XOR byte `a` of the frame with mask `b` (-1/0 =
                  ///< seeded random position / nonzero mask).
  kTruncate,      ///< Keep only the first `a` frame bytes (-1 = seeded
                  ///< random proper prefix).
  kPartialWrite,  ///< Write `a` bytes of the frame, then reset.
  kCrash,         ///< Kill the worker thread.
  kKillTile,      ///< Hard-fail tile `a` (-1 = seeded random tile).
};

[[nodiscard]] const char* action_name(Action action) noexcept;

/// The outcome of consulting a hook: no-op unless `action != kNone`.
/// `salt` seeds any random choice the action defers to apply time (e.g.
/// which byte of a frame whose length decide() cannot know).
struct Decision {
  Action action = Action::kNone;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::uint64_t salt = 0;

  [[nodiscard]] explicit operator bool() const noexcept {
    return action != Action::kNone;
  }
};

/// One scripted failure: at invocation `first` of `hook` (1-based,
/// counted per hook across all threads), perform `action`; repeat every
/// `every` further invocations, `count` times total.
struct Rule {
  Hook hook = Hook::kAccept;
  Action action = Action::kNone;
  std::int64_t first = 1;
  std::int64_t every = 0;  ///< 0 with count > 1 means consecutive.
  int count = 1;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// A deterministic chaos script (builder helpers chain).
struct ChaosPlan {
  std::uint64_t seed = 0xC4A05u;
  std::vector<Rule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }

  ChaosPlan& add(Rule rule);
  ChaosPlan& fail(Hook hook, std::int64_t first, int count = 1,
                  std::int64_t every = 0);
  ChaosPlan& reset(Hook hook, std::int64_t first, int count = 1,
                   std::int64_t every = 0);
  ChaosPlan& delay_ms(Hook hook, std::int64_t ms, std::int64_t first,
                      int count = 1, std::int64_t every = 0);
  ChaosPlan& corrupt_byte(Hook hook, std::int64_t index, std::int64_t mask,
                          std::int64_t first, int count = 1,
                          std::int64_t every = 0);
  ChaosPlan& truncate(Hook hook, std::int64_t keep, std::int64_t first,
                      int count = 1, std::int64_t every = 0);
  ChaosPlan& partial_write(std::int64_t bytes, std::int64_t first,
                           int count = 1, std::int64_t every = 0);
  ChaosPlan& crash_worker(std::int64_t first, int count = 1,
                          std::int64_t every = 0);
  /// Kill tile `tile` (-1 = seeded random) of the leased fabric; on the
  /// resilient path `cycle` schedules the death mid-epoch through the
  /// job's own fault plan.
  ChaosPlan& kill_tile(std::int64_t tile, std::int64_t cycle,
                       std::int64_t first, int count = 1,
                       std::int64_t every = 0);
};

/// Replays a ChaosPlan.  Thread-safe: hook sites in every server/client/
/// worker thread funnel through decide(), which counts the invocation,
/// matches rules and burns one draw of the rule's private PRNG stream per
/// firing.  Wire one injector per experiment; it is not owned by the
/// components it is handed to and must outlive them.
class ChaosInjector {
 public:
  explicit ChaosInjector(ChaosPlan plan);

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  /// Count one invocation of `hook` and return the rule decision due at
  /// this invocation (kNone almost always).
  [[nodiscard]] Decision decide(Hook hook);

  /// Route chaos.invoked.* / chaos.fired.* counters into `metrics` (not
  /// owned; call before the first decide()).
  void attach_metrics(obs::MetricsRegistry* metrics);

  /// Record every firing as a kChaosFire flight event (code = hook,
  /// arg = action) on `tracer`'s ring, so anomaly dumps show the chaos
  /// that explains them.  Not owned; call before the first decide().
  void attach_tracer(obs::Tracer* tracer);

  [[nodiscard]] std::int64_t invocations(Hook hook) const;
  [[nodiscard]] std::int64_t fired(Hook hook) const;
  [[nodiscard]] std::int64_t fired_total() const;
  [[nodiscard]] const ChaosPlan& plan() const noexcept { return plan_; }

 private:
  const ChaosPlan plan_;
  mutable std::mutex mu_;
  std::array<std::int64_t, kHookCount> invocations_{};
  std::array<std::int64_t, kHookCount> fired_{};
  std::vector<int> fired_per_rule_;   ///< Firings consumed per rule.
  std::vector<SplitMix64> rule_rng_;  ///< Per-rule deterministic stream.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::array<obs::CounterHandle, kHookCount> fired_counters_{};
};

/// The hook entry point every call site uses.  One predictable branch
/// when chaos is wired off (`inj == nullptr`).
[[nodiscard]] inline Decision decide(ChaosInjector* inj, Hook hook) {
  if (inj == nullptr) return {};
  return inj->decide(hook);
}

/// Apply a frame-level decision (kCorruptByte / kTruncate) to wire
/// bytes, resolving -1 params from the decision salt.  Never touches
/// buffers for other actions; returns true when bytes changed.
bool mutate_frame(const Decision& decision, std::vector<std::uint8_t>* bytes);

}  // namespace cgra::chaos

#include "chaos/chaos.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/tracer.hpp"

namespace cgra::chaos {

const char* hook_name(Hook hook) noexcept {
  switch (hook) {
    case Hook::kAccept: return "accept";
    case Hook::kServerRead: return "server_read";
    case Hook::kServerWrite: return "server_write";
    case Hook::kClientConnect: return "client_connect";
    case Hook::kClientRecv: return "client_recv";
    case Hook::kServerFrame: return "server_frame";
    case Hook::kClientFrame: return "client_frame";
    case Hook::kWorkerCrash: return "worker_crash";
    case Hook::kPoolLease: return "pool_lease";
    case Hook::kCachePoison: return "cache_poison";
    case Hook::kQueueStall: return "queue_stall";
    case Hook::kFabricPoison: return "fabric_poison";
  }
  return "?";
}

const char* action_name(Action action) noexcept {
  switch (action) {
    case Action::kNone: return "none";
    case Action::kFail: return "fail";
    case Action::kReset: return "reset";
    case Action::kDelay: return "delay";
    case Action::kCorruptByte: return "corrupt_byte";
    case Action::kTruncate: return "truncate";
    case Action::kPartialWrite: return "partial_write";
    case Action::kCrash: return "crash";
    case Action::kKillTile: return "kill_tile";
  }
  return "?";
}

ChaosPlan& ChaosPlan::add(Rule rule) {
  rule.first = std::max<std::int64_t>(1, rule.first);
  rule.count = std::max(1, rule.count);
  rule.every = std::max<std::int64_t>(0, rule.every);
  rules.push_back(rule);
  return *this;
}

ChaosPlan& ChaosPlan::fail(Hook hook, std::int64_t first, int count,
                           std::int64_t every) {
  return add({hook, Action::kFail, first, every, count, 0, 0});
}

ChaosPlan& ChaosPlan::reset(Hook hook, std::int64_t first, int count,
                            std::int64_t every) {
  return add({hook, Action::kReset, first, every, count, 0, 0});
}

ChaosPlan& ChaosPlan::delay_ms(Hook hook, std::int64_t ms, std::int64_t first,
                               int count, std::int64_t every) {
  return add({hook, Action::kDelay, first, every, count, ms, 0});
}

ChaosPlan& ChaosPlan::corrupt_byte(Hook hook, std::int64_t index,
                                   std::int64_t mask, std::int64_t first,
                                   int count, std::int64_t every) {
  return add({hook, Action::kCorruptByte, first, every, count, index, mask});
}

ChaosPlan& ChaosPlan::truncate(Hook hook, std::int64_t keep,
                               std::int64_t first, int count,
                               std::int64_t every) {
  return add({hook, Action::kTruncate, first, every, count, keep, 0});
}

ChaosPlan& ChaosPlan::partial_write(std::int64_t bytes, std::int64_t first,
                                    int count, std::int64_t every) {
  return add({Hook::kServerWrite, Action::kPartialWrite, first, every, count,
              bytes, 0});
}

ChaosPlan& ChaosPlan::crash_worker(std::int64_t first, int count,
                                   std::int64_t every) {
  return add({Hook::kWorkerCrash, Action::kCrash, first, every, count, 0, 0});
}

ChaosPlan& ChaosPlan::kill_tile(std::int64_t tile, std::int64_t cycle,
                                std::int64_t first, int count,
                                std::int64_t every) {
  return add({Hook::kFabricPoison, Action::kKillTile, first, every, count,
              tile, cycle});
}

ChaosInjector::ChaosInjector(ChaosPlan plan) : plan_(std::move(plan)) {
  fired_per_rule_.assign(plan_.rules.size(), 0);
  rule_rng_.reserve(plan_.rules.size());
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    // Independent stream per rule: firings stay deterministic no matter
    // how concurrent hook invocations interleave across rules.
    rule_rng_.emplace_back(plan_.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
  }
}

void ChaosInjector::attach_metrics(obs::MetricsRegistry* metrics) {
  std::array<obs::CounterHandle, kHookCount> counters{};
  for (int h = 0; metrics != nullptr && h < kHookCount; ++h) {
    counters[static_cast<std::size_t>(h)] = metrics->counter(
        std::string("chaos.fired.") + hook_name(static_cast<Hook>(h)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  fired_counters_ = counters;
}

void ChaosInjector::attach_tracer(obs::Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mu_);
  tracer_ = tracer;
}

Decision ChaosInjector::decide(Hook hook) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto h = static_cast<std::size_t>(hook);
  const std::int64_t n = ++invocations_[h];
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const Rule& rule = plan_.rules[i];
    if (rule.hook != hook || rule.action == Action::kNone) continue;
    int& used = fired_per_rule_[i];
    if (used >= rule.count) continue;
    // Firing schedule: first, then first + every, first + 2*every, ...
    // (every == 0 fires on consecutive invocations).
    const std::int64_t due = rule.first + used * std::max<std::int64_t>(
                                              1, rule.every);
    if (n != due && !(rule.every == 0 && n >= rule.first)) continue;
    if (n < due) continue;
    ++used;
    ++fired_[h];
    if (tracer_ != nullptr) {
      // Trace id 0: a firing belongs to no single request, but anomaly
      // dumps include chaos-fire events alongside the trace's own.
      tracer_->event(obs::TraceContext{}, obs::FlightEventKind::kChaosFire,
                     static_cast<std::uint16_t>(hook),
                     static_cast<std::uint32_t>(rule.action));
    }
    Decision d;
    d.action = rule.action;
    d.a = rule.a;
    d.b = rule.b;
    d.salt = rule_rng_[i].next();
    obs::MetricsRegistry* const metrics = metrics_;
    const obs::CounterHandle counter = fired_counters_[h];
    lock.unlock();
    if (metrics != nullptr && counter.valid()) metrics->add(counter);
    return d;
  }
  return {};
}

std::int64_t ChaosInjector::invocations(Hook hook) const {
  std::lock_guard<std::mutex> lock(mu_);
  return invocations_[static_cast<std::size_t>(hook)];
}

std::int64_t ChaosInjector::fired(Hook hook) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_[static_cast<std::size_t>(hook)];
}

std::int64_t ChaosInjector::fired_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto v : fired_) total += v;
  return total;
}

bool mutate_frame(const Decision& decision, std::vector<std::uint8_t>* bytes) {
  if (bytes == nullptr || bytes->empty()) return false;
  SplitMix64 rng(decision.salt);
  switch (decision.action) {
    case Action::kCorruptByte: {
      const std::size_t index =
          decision.a >= 0 &&
                  decision.a < static_cast<std::int64_t>(bytes->size())
              ? static_cast<std::size_t>(decision.a)
              : static_cast<std::size_t>(rng.next_below(bytes->size()));
      const auto mask = static_cast<std::uint8_t>(
          decision.b != 0 ? decision.b : 1 + rng.next_below(255));
      (*bytes)[index] ^= mask;
      return true;
    }
    case Action::kTruncate: {
      const std::size_t keep =
          decision.a >= 0 &&
                  decision.a < static_cast<std::int64_t>(bytes->size())
              ? static_cast<std::size_t>(decision.a)
              : static_cast<std::size_t>(rng.next_below(bytes->size()));
      bytes->resize(keep);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace cgra::chaos

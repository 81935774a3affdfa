#include "parallel/fault_injection.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ldga::parallel {

namespace {

/// Combines the fault coordinates into one well-mixed 64-bit key.
std::uint64_t mix(std::uint64_t seed, std::uint64_t phase,
                  std::uint64_t index, std::uint64_t attempt) {
  std::uint64_t state = seed;
  splitmix64(state);
  state ^= phase * 0x9e3779b97f4a7c15ULL;
  splitmix64(state);
  state ^= index * 0xbf58476d1ce4e5b9ULL;
  splitmix64(state);
  state ^= attempt * 0x94d049bb133111ebULL;
  return state;
}

/// Deterministic uniform draw in [0, 1) from a mutable hash state.
double draw(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

bool scheduled(const std::vector<std::uint64_t>& schedule,
               std::uint64_t index) {
  return std::find(schedule.begin(), schedule.end(), index) !=
         schedule.end();
}

}  // namespace

void FaultInjector::Config::validate() const {
  for (const double p :
       {throw_probability, delay_probability, stale_probability}) {
    if (p < 0.0 || p > 1.0) {
      throw ConfigError("FaultInjector: probabilities must be in [0, 1]");
    }
  }
  if (delay.count() < 0) {
    throw ConfigError("FaultInjector: delay must be >= 0");
  }
  if (straggler_probability < 0.0 || straggler_probability > 1.0) {
    throw ConfigError(
        "FaultInjector: straggler_probability must be in [0, 1]");
  }
  if (straggler_probability > 0.0) {
    if (straggler_shape <= 0.0) {
      throw ConfigError("FaultInjector: straggler_shape must be > 0");
    }
    if (straggler_scale.count() < 0 || straggler_cap.count() < 0 ||
        straggler_cap < straggler_scale) {
      throw ConfigError(
          "FaultInjector: need 0 <= straggler_scale <= straggler_cap");
    }
  }
}

FaultInjector::Config FaultInjector::straggler_preset(
    std::uint64_t seed, double probability,
    std::chrono::milliseconds scale) {
  Config config;
  config.seed = seed;
  config.straggler_probability = probability;
  config.straggler_scale = scale;
  config.straggler_shape = 1.1;  // heavy tail: E[delay] barely finite
  config.straggler_cap = scale * 50;
  config.validate();
  return config;
}

FaultInjector::FaultInjector(Config config) : config_(std::move(config)) {
  config_.validate();
}

FaultDecision FaultInjector::decide(std::uint64_t phase,
                                    std::uint64_t task_index) {
  std::uint32_t attempt;
  {
    std::lock_guard lock(mutex_);
    // Phases stay far below 2^32 in practice; fold them into one key.
    attempt = attempts_[(phase << 32) ^ task_index]++;
  }

  FaultDecision decision;
  if (attempt == 0 && scheduled(config_.throw_on_tasks, task_index)) {
    decision.kind = FaultDecision::Kind::kThrow;
  } else if (attempt == 0 && scheduled(config_.stale_on_tasks, task_index)) {
    decision.kind = FaultDecision::Kind::kStaleReply;
  } else if (attempt == 0 && scheduled(config_.drop_on_tasks, task_index)) {
    decision.kind = FaultDecision::Kind::kDropReply;
  } else if (attempt == 0 && scheduled(config_.kill_on_tasks, task_index)) {
    decision.kind = FaultDecision::Kind::kKillWorker;
  } else {
    std::uint64_t state = mix(config_.seed, phase, task_index, attempt);
    if (draw(state) < config_.throw_probability) {
      decision.kind = FaultDecision::Kind::kThrow;
    } else if (draw(state) < config_.stale_probability) {
      decision.kind = FaultDecision::Kind::kStaleReply;
    } else if (draw(state) < config_.delay_probability) {
      decision.kind = FaultDecision::Kind::kDelay;
      decision.delay = config_.delay;
    } else if (draw(state) < config_.straggler_probability) {
      // Pareto(shape α, scale s): s · u^(-1/α) for u uniform in (0, 1].
      // The same (seed, phase, index, attempt) coordinates always draw
      // the same u, so the straggler schedule is reproducible.
      const double u = 1.0 - draw(state);  // (0, 1]
      const double factor =
          std::pow(u, -1.0 / config_.straggler_shape);
      const double scaled =
          static_cast<double>(config_.straggler_scale.count()) * factor;
      const auto capped = static_cast<std::int64_t>(
          std::min(scaled,
                   static_cast<double>(config_.straggler_cap.count())));
      decision.kind = FaultDecision::Kind::kDelay;
      decision.delay = std::chrono::milliseconds(capped);
      stragglers_.fetch_add(1);
      straggler_ms_.fetch_add(static_cast<std::uint64_t>(capped));
    }
  }

  switch (decision.kind) {
    case FaultDecision::Kind::kThrow:
      throws_.fetch_add(1);
      break;
    case FaultDecision::Kind::kDelay:
      delays_.fetch_add(1);
      break;
    case FaultDecision::Kind::kStaleReply:
      stales_.fetch_add(1);
      break;
    case FaultDecision::Kind::kDropReply:
      drops_.fetch_add(1);
      break;
    case FaultDecision::Kind::kKillWorker:
      kills_.fetch_add(1);
      break;
    case FaultDecision::Kind::kNone:
      break;
  }
  return decision;
}

void FaultInjector::apply_before_work(const FaultDecision& decision) {
  switch (decision.kind) {
    case FaultDecision::Kind::kThrow:
      throw FaultInjected("injected fault");
    case FaultDecision::Kind::kDelay:
      std::this_thread::sleep_for(decision.delay);
      break;
    case FaultDecision::Kind::kStaleReply:
    case FaultDecision::Kind::kNone:
    // Slave faults need a slave; without a farm (the in-process
    // backend, the stream's lanes) there is no reply to drop, so they
    // degrade to no-ops rather than faking a different failure mode.
    case FaultDecision::Kind::kDropReply:
    case FaultDecision::Kind::kKillWorker:
      break;
  }
}

}  // namespace ldga::parallel

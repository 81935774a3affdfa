#include "stats/evaluation_service.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace ldga::stats {

namespace {

struct CandidateHash {
  std::size_t operator()(const Candidate& v) const {
    std::uint64_t state = 0x6c6467611d2004ULL ^ (v.size() << 32);
    std::uint64_t h = 0;
    for (const genomics::SnpIndex s : v) {
      state ^= s;
      h ^= splitmix64(state);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

EvaluationService::EvaluationService(
    const HaplotypeEvaluator& evaluator,
    std::shared_ptr<EvaluationBackend> backend)
    : evaluator_(&evaluator), backend_(std::move(backend)) {
  LDGA_EXPECTS(backend_ != nullptr);
}

std::vector<double> EvaluationService::evaluate(
    std::span<const Candidate> batch) {
  const Stopwatch watch;
  ++stats_.batches;
  stats_.candidates += batch.size();

  constexpr std::size_t kUnresolved = static_cast<std::size_t>(-1);
  std::vector<double> results(batch.size());
  /// First batch position of each distinct candidate.
  std::unordered_map<Candidate, std::size_t, CandidateHash> first_seen;
  first_seen.reserve(batch.size());
  /// Duplicates copy their result from the first occurrence afterwards.
  std::vector<std::size_t> copy_from(batch.size(), kUnresolved);
  /// First occurrences that missed the cache: position in `unique`.
  std::vector<std::size_t> dispatch_slot(batch.size(), kUnresolved);
  std::vector<Candidate> unique;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto [seen, fresh] = first_seen.emplace(batch[i], i);
    if (!fresh) {
      ++stats_.duplicates;
      copy_from[i] = seen->second;
      continue;
    }
    if (const auto cached = evaluator_->cached_fitness(batch[i])) {
      ++stats_.cache_hits;
      results[i] = *cached;
      continue;
    }
    dispatch_slot[i] = unique.size();
    unique.push_back(batch[i]);
  }

  if (unique.size() > 1) {
    // Dispatch the misses ordered by locus-set size (stable, so ties
    // keep batch order — deterministic): same-size candidates sit in
    // contiguous runs, which is what lets the batched backends group
    // same-shape EM solves. Task order of the results is restored by
    // the slot remap, so fitnesses are unaffected.
    std::vector<std::size_t> order(unique.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return unique[a].size() < unique[b].size();
                     });
    std::vector<std::size_t> inverse(order.size());
    std::vector<Candidate> sorted;
    sorted.reserve(unique.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      inverse[order[pos]] = pos;
      sorted.push_back(std::move(unique[order[pos]]));
    }
    unique = std::move(sorted);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (dispatch_slot[i] != kUnresolved) {
        dispatch_slot[i] = inverse[dispatch_slot[i]];
      }
    }
  }
  if (!unique.empty()) {
    stats_.dispatched += unique.size();
    const std::vector<double> computed = backend_->evaluate_batch(unique);
    LDGA_EXPECTS(computed.size() == unique.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (dispatch_slot[i] != kUnresolved) {
        results[i] = computed[dispatch_slot[i]];
      }
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (copy_from[i] != kUnresolved) results[i] = results[copy_from[i]];
  }
  stats_.batch_seconds += watch.elapsed_seconds();
  return results;
}

// --- EvaluationStream -------------------------------------------------

void EvaluationStreamConfig::validate() const {
  if (lanes < 1) {
    throw ConfigError("EvaluationStreamConfig: need at least one lane");
  }
  if (max_coalesce < 1) {
    throw ConfigError("EvaluationStreamConfig: max_coalesce must be >= 1");
  }
  backend.farm_policy.validate();
}

/// One dispatcher lane: per tenant, a private serial backend (own
/// scratch arena, own retry ladder and fault-injection phase counter)
/// wrapped in a private EvaluationService, so every lane keeps the
/// probe-once / compute-once accounting and the SoA batched dispatch of
/// the synchronous path. Services are created lazily at the first batch
/// of a tenant this lane claims; only the lane's own thread touches the
/// map.
struct EvaluationStream::Lane {
  static BackendOptions lane_options(const EvaluationStreamConfig& config) {
    BackendOptions options = config.backend;
    options.workers = 1;
    options.transport = FarmTransport::kInProcess;
    options.pool = nullptr;
    return options;
  }

  EvaluationService& service_for(std::uint32_t slot,
                                 const HaplotypeEvaluator& evaluator,
                                 const EvaluationStreamConfig& config) {
    auto found = services.find(slot);
    if (found == services.end()) {
      found = services
                  .emplace(slot, std::make_unique<EvaluationService>(
                                     evaluator, make_serial_backend(
                                                    evaluator,
                                                    lane_options(config))))
                  .first;
    }
    return *found->second;
  }

  std::unordered_map<std::uint32_t, std::unique_ptr<EvaluationService>>
      services;
};

/// One evaluator's tenancy: its queue block, its in-flight dedup map
/// (two tenants may legitimately compute equal SNP sets against
/// different datasets, so dedup never crosses tenants) and the drain
/// accounting retire_queues() blocks on.
struct EvaluationStream::Tenant {
  const HaplotypeEvaluator* evaluator = nullptr;
  std::uint32_t queue_base = 0;
  std::uint32_t queue_count = 0;
  std::atomic<bool> open{true};
  /// Accepted but not yet delivered submissions of this tenant.
  std::atomic<std::uint64_t> outstanding{0};
  std::unordered_map<Candidate, std::vector<Waiter>, CandidateHash> inflight;
};

EvaluationStream::EvaluationStream(std::uint32_t queue_capacity,
                                   EvaluationStreamConfig config)
    : config_(std::move(config)) {
  config_.validate();
  LDGA_EXPECTS(queue_capacity >= 1);
  completions_.reserve(queue_capacity);
  for (std::uint32_t q = 0; q < queue_capacity; ++q) {
    completions_.push_back(std::make_unique<CompletionQueue>());
  }
  tenants_.resize(queue_capacity);
  queue_slots_.assign(queue_capacity, kUnboundQueue);
  lanes_.reserve(config_.lanes);
  threads_.reserve(config_.lanes);
  for (std::uint32_t l = 0; l < config_.lanes; ++l) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  for (std::uint32_t l = 0; l < config_.lanes; ++l) {
    threads_.emplace_back([this, l] { lane_loop(*lanes_[l]); });
  }
}

EvaluationStream::EvaluationStream(const HaplotypeEvaluator& evaluator,
                                   std::uint32_t queue_count,
                                   EvaluationStreamConfig config)
    : EvaluationStream(queue_count, std::move(config)) {
  open_queues(evaluator, queue_count);
}

EvaluationStream::~EvaluationStream() { close(); }

std::uint32_t EvaluationStream::open_queues(
    const HaplotypeEvaluator& evaluator, std::uint32_t count) {
  LDGA_EXPECTS(count >= 1);
  const std::lock_guard lock(registry_mutex_);
  if (bound_queues_ + count > completions_.size()) {
    throw ConfigError(
        "EvaluationStream::open_queues: queue capacity exhausted (" +
        std::to_string(completions_.size()) + " preallocated)");
  }
  const std::uint32_t slot = open_slots_++;
  const std::uint32_t base = bound_queues_;
  bound_queues_ += count;
  auto tenant = std::make_unique<Tenant>();
  tenant->evaluator = &evaluator;
  tenant->queue_base = base;
  tenant->queue_count = count;
  tenants_[slot] = std::move(tenant);
  for (std::uint32_t q = base; q < base + count; ++q) {
    queue_slots_[q] = slot;
  }
  return base;
}

void EvaluationStream::retire_queues(std::uint32_t base,
                                     std::uint32_t count) {
  std::unique_lock lock(registry_mutex_);
  LDGA_EXPECTS(base < queue_slots_.size() &&
               queue_slots_[base] != kUnboundQueue);
  Tenant& tenant = *tenants_[queue_slots_[base]];
  LDGA_EXPECTS(tenant.queue_base == base && tenant.queue_count == count);
  tenant.open.store(false, std::memory_order_relaxed);
  retire_cv_.wait(lock, [&] {
    return tenant.outstanding.load(std::memory_order_acquire) == 0;
  });
}

bool EvaluationStream::submit(std::uint32_t queue, std::uint64_t ticket,
                              Candidate candidate) {
  LDGA_EXPECTS(queue < completions_.size() &&
               queue_slots_[queue] != kUnboundQueue);
  const std::uint32_t slot = queue_slots_[queue];
  Tenant& tenant = *tenants_[slot];
  if (!tenant.open.load(std::memory_order_relaxed)) return false;
  Submission submission{queue, slot, ticket, std::move(candidate)};
  // Count before the push: a lane may claim, evaluate and deliver the
  // submission before this thread runs another instruction, and
  // in_flight() (submitted - delivered, unsigned) must never observe
  // delivered ahead of submitted.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  tenant.outstanding.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.push(std::move(submission))) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    tenant.outstanding.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void EvaluationStream::deliver(const Waiter& waiter, double fitness,
                               bool failed) {
  CompletionQueue& completion = *completions_[waiter.queue];
  // Count before the result becomes poppable: a consumer that has
  // drained its queue may immediately read in_flight()/stats(), and
  // the counters must already cover everything it received (the
  // completion mutex orders these relaxed increments for it).
  if (failed) failed_.fetch_add(1, std::memory_order_relaxed);
  delivered_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(completion.mutex);
    completion.results.push_back({waiter.ticket, fitness, failed});
  }
  completion.ready.notify_all();
  // Tenant drain accounting, after the result is poppable: when the
  // last outstanding submission lands, a retire_queues() waiter may
  // wake and must find everything in the completion queues. Taking the
  // registry mutex around the notify pairs with its predicate wait.
  Tenant& tenant = *tenants_[queue_slots_[waiter.queue]];
  if (tenant.outstanding.fetch_sub(1, std::memory_order_release) == 1) {
    { const std::lock_guard lock(registry_mutex_); }
    retire_cv_.notify_all();
  }
}

void EvaluationStream::lane_loop(Lane& lane) {
  for (;;) {
    // Claim same-(tenant, size) submissions from anywhere in the queue:
    // the SoA EM kernels batch same-shape candidates, and islands of
    // different sizes interleave their offspring, so a plain FIFO claim
    // would hand the kernels batches with ~1-wide shape groups. The
    // tenant half of the key keeps a batch on one evaluator — a
    // candidate only means something against its own window's dataset.
    std::vector<Submission> batch = queue_.pop_batch_grouped(
        config_.max_coalesce, [](const Submission& s) {
          return (static_cast<std::size_t>(s.slot) << 40) |
                 s.candidate.size();
        });
    if (batch.empty()) return;  // closed and drained
    dispatch_rounds_.fetch_add(1, std::memory_order_relaxed);

    // The grouped claim is key-homogeneous, so the whole batch belongs
    // to one tenant. Its registry entry was published before any of
    // its submissions could be queued.
    const std::uint32_t slot = batch.front().slot;
    Tenant& tenant = *tenants_[slot];
    EvaluationService& service =
        lane.service_for(slot, *tenant.evaluator, config_);

    // Claim pass: this lane computes a candidate only if no other lane
    // is already computing it; otherwise the submission latches onto
    // the in-flight computation and is delivered by whichever lane
    // finishes it.
    std::vector<Candidate> claimed;
    claimed.reserve(batch.size());
    {
      std::lock_guard lock(inflight_mutex_);
      for (Submission& submission : batch) {
        auto [entry, fresh] = tenant.inflight.try_emplace(
            submission.candidate,
            std::vector<Waiter>{{submission.queue, submission.ticket}});
        if (!fresh) {
          entry->second.push_back({submission.queue, submission.ticket});
          inflight_merges_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        claimed.push_back(std::move(submission.candidate));
      }
    }
    if (claimed.empty()) continue;

    std::vector<double> scores;
    std::vector<bool> failures(claimed.size(), false);
    try {
      scores = service.evaluate(claimed);
    } catch (const std::exception&) {
      // A batch member exhausted its retry ladder. Re-run one by one so
      // its siblings still get real scores; the exhausted candidate is
      // delivered failed with the penalty fitness instead of tearing
      // down the whole stream the way a synchronous phase would.
      scores.assign(claimed.size(),
                    tenant.evaluator->config().penalty_fitness);
      for (std::size_t i = 0; i < claimed.size(); ++i) {
        try {
          scores[i] = service.evaluate(
              std::span<const Candidate>(&claimed[i], 1))[0];
        } catch (const std::exception&) {
          failures[i] = true;
        }
      }
    }

    for (std::size_t i = 0; i < claimed.size(); ++i) {
      std::vector<Waiter> waiters;
      {
        std::lock_guard lock(inflight_mutex_);
        auto entry = tenant.inflight.find(claimed[i]);
        LDGA_EXPECTS(entry != tenant.inflight.end());
        waiters = std::move(entry->second);
        tenant.inflight.erase(entry);
      }
      for (const Waiter& waiter : waiters) {
        deliver(waiter, scores[i], failures[i]);
      }
    }
  }
}

std::vector<StreamResult> EvaluationStream::poll(std::uint32_t queue) {
  LDGA_EXPECTS(queue < completions_.size());
  CompletionQueue& completion = *completions_[queue];
  std::lock_guard lock(completion.mutex);
  return std::exchange(completion.results, {});
}

std::vector<StreamResult> EvaluationStream::wait(
    std::uint32_t queue, std::chrono::milliseconds timeout) {
  LDGA_EXPECTS(queue < completions_.size());
  CompletionQueue& completion = *completions_[queue];
  std::unique_lock lock(completion.mutex);
  completion.ready.wait_for(lock, timeout, [&] {
    return !completion.results.empty() ||
           drained_.load(std::memory_order_acquire);
  });
  return std::exchange(completion.results, {});
}

void EvaluationStream::close() {
  {
    std::lock_guard lock(close_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  queue_.close();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  for (const auto& lane : lanes_) {
    for (const auto& [slot, service] : lane->services) {
      const EvaluationServiceStats& s = service->stats();
      final_service_stats_.batches += s.batches;
      final_service_stats_.candidates += s.candidates;
      final_service_stats_.cache_hits += s.cache_hits;
      final_service_stats_.duplicates += s.duplicates;
      final_service_stats_.dispatched += s.dispatched;
      final_service_stats_.batch_seconds += s.batch_seconds;
    }
  }
  // A retire_queues() waiter sleeping through the shutdown: everything
  // is delivered now, so its predicate holds.
  retire_cv_.notify_all();
  // Results are final now: wake any consumer still blocked in wait(),
  // and make later wait() calls return empty immediately instead of
  // sleeping out their timeout (shutdown, not timeout).
  drained_.store(true, std::memory_order_release);
  for (const auto& completion : completions_) {
    completion->ready.notify_all();
  }
}

EvaluationStreamStats EvaluationStream::stats() const {
  EvaluationStreamStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = delivered_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.inflight_merges = inflight_merges_.load(std::memory_order_relaxed);
  stats.dispatch_rounds = dispatch_rounds_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(close_mutex_);
    if (closed_) stats.service = final_service_stats_;
  }
  return stats;
}

}  // namespace ldga::stats

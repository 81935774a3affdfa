#include "ga/island_engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "ga/migration.hpp"
#include "ga/multipopulation.hpp"
#include "util/error.hpp"

namespace ldga::ga {

namespace {

/// Strict-improvement tolerance, identical to the synchronous engine's.
constexpr double kImprovementEpsilon = 1e-9;

/// Migrant-pool cap per island: mates for the inter-population
/// crossover; old elites rotate out as fresher ones arrive.
constexpr std::size_t kMigrantPoolCap = 8;

/// One offspring (or initial/immigrant) awaiting its evaluation result.
struct PendingRecord {
  enum class Kind : std::uint8_t {
    kInitial,
    kMutation,    ///< one trial of a mutation application
    kCrossChild,  ///< one child of a crossover application
    kImmigrant,
  };

  HaplotypeIndividual individual;
  Kind kind = Kind::kInitial;
  std::uint32_t op = 0;
  double baseline = 0.0;
  std::int64_t group = -1;        ///< SNP-mutation trial group
  std::int64_t application = -1;  ///< crossover application
  std::uint32_t target_slot = 0;  ///< immigrant destination slot
};

/// "Applied several times in parallel, keep the best": the group
/// resolves when every trial's result has arrived — in any order.
struct TrialGroup {
  std::uint32_t remaining = 0;
  bool any = false;
  HaplotypeIndividual best;
  double baseline = 0.0;
};

/// One crossover application: progress is the mean improvement of its
/// children (§4.3.2), credited when the last child's result arrives.
struct CrossoverApplication {
  std::uint32_t remaining = 0;
  std::uint32_t counted = 0;
  double sum = 0.0;
  std::uint32_t op = 0;
};

}  // namespace

void IslandConfig::validate() const {
  ga.validate();
  if (lanes < 1) throw ConfigError("IslandConfig: lanes must be >= 1");
  if (max_coalesce < 1) {
    throw ConfigError("IslandConfig: max_coalesce must be >= 1");
  }
  if (max_pending < 1) {
    throw ConfigError("IslandConfig: max_pending must be >= 1");
  }
  if (migration_interval < 1) {
    throw ConfigError("IslandConfig: migration cadence must be >= 1");
  }
  if (rate_sync_interval < 1) {
    throw ConfigError("IslandConfig: rate_sync_interval must be >= 1");
  }
  if (poll_timeout.count() <= 0) {
    throw ConfigError("IslandConfig: poll_timeout must be positive");
  }
}

IslandConfig IslandConfig::validated() const {
  validate();
  return *this;
}

const char* to_string(IslandEvent::Kind kind) {
  switch (kind) {
    case IslandEvent::Kind::kInitialized: return "initialized";
    case IslandEvent::Kind::kImprovement: return "improvement";
    case IslandEvent::Kind::kMigrationOut: return "migration_out";
    case IslandEvent::Kind::kMigrationIn: return "migration_in";
    case IslandEvent::Kind::kImmigrants: return "immigrants";
    case IslandEvent::Kind::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

/// Everything one island thread owns exclusively. No other thread
/// touches a live island's subpopulation, RNG or bookkeeping — the only
/// cross-thread surfaces are the stream, the router, the shared rate
/// controllers and the published fitness ranges.
struct IslandEngine::Island {
  Island(std::uint32_t island_index, std::uint32_t size,
         std::uint32_t capacity, std::uint64_t seed)
      : index(island_index),
        subpop(size, capacity),
        rng(seed ^ (0x9e3779b97f4a7c15ULL * (island_index + 1))) {}

  std::uint32_t index;
  Subpopulation subpop;
  Rng rng;

  RateDelta mutation_delta;
  RateDelta crossover_delta;
  RateSnapshot mutation_snapshot;
  RateSnapshot crossover_snapshot;

  std::unordered_map<std::uint64_t, PendingRecord> pending;
  std::unordered_map<std::int64_t, TrialGroup> groups;
  std::unordered_map<std::int64_t, CrossoverApplication> applications;
  std::int64_t next_group = 0;
  std::int64_t next_application = 0;
  std::uint64_t next_ticket = 0;

  std::uint32_t initials_outstanding = 0;
  bool initialized = false;
  std::uint32_t inflight_applications = 0;

  std::uint64_t steps = 0;  ///< integrated applications this run
  std::uint64_t steps_since_sync = 0;
  std::uint64_t steps_since_migration = 0;
  std::uint64_t immigrant_mark = 0;  ///< global step of the last wave

  double local_best = 0.0;
  bool has_best = false;

  std::vector<HaplotypeIndividual> migrant_pool;
};

/// State shared by the island threads and the coordinator.
struct IslandEngine::Shared {
  const VariationOperators* operators = nullptr;
  const Selector* selector = nullptr;
  stats::EvaluationStream* stream = nullptr;
  MigrationRouter* router = nullptr;
  SharedRateController* mutation_rates = nullptr;
  SharedRateController* crossover_rates = nullptr;
  std::uint32_t island_count = 0;
  std::uint32_t min_size = 0;
  std::uint32_t snp_count = 0;

  std::chrono::steady_clock::time_point start;
  std::uint64_t evaluations_base = 0;
  std::uint64_t evaluations_at_start = 0;
  const stats::HaplotypeEvaluator* evaluator = nullptr;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_steps{0};
  std::atomic<std::uint64_t> last_improvement{0};
  std::atomic<std::uint32_t> immigrant_events{0};
  std::atomic<std::uint64_t> failed_offspring{0};
  std::atomic<std::uint32_t> initialized_islands{0};

  /// Published per-island fitness ranges for cross-size normalization.
  /// Islands republish their own range at the rate-sync cadence; a
  /// breeding island normalizes offspring of *other* sizes against the
  /// owner's last published range — a slightly stale range shifts the
  /// progress signal, never correctness.
  mutable std::mutex range_mutex;
  std::vector<FitnessRange> ranges;

  /// Coordinator wakeup: islands signal after every integrated step
  /// (and on stop) so termination checks run event-driven instead of on
  /// a polling cadence. The coordinator still wakes on a coarse
  /// fallback timeout for liveness, so a lost notify costs latency,
  /// never a hang — which is why notifying without holding the mutex
  /// is fine here.
  std::mutex coord_mutex;
  std::condition_variable coord_cv;

  /// Checkpoint rendezvous. `pause_flag` is the cheap loop-top check;
  /// the mutex/cv pair implements the rendezvous itself.
  std::atomic<bool> pause_flag{false};
  std::mutex pause_mutex;
  std::condition_variable pause_cv;
  bool pause_requested = false;
  std::uint32_t paused = 0;

  std::mutex error_mutex;
  std::exception_ptr error;

  std::mutex event_mutex;

  double wall_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }
  std::uint64_t evaluations_used() const {
    return evaluations_base + evaluator->evaluation_count() -
           evaluations_at_start;
  }
  double norm(std::uint32_t size, double fitness) const {
    const std::lock_guard<std::mutex> lock(range_mutex);
    return ranges[size - min_size].normalize(fitness);
  }
  void publish_range(std::uint32_t island, FitnessRange range) {
    const std::lock_guard<std::mutex> lock(range_mutex);
    ranges[island] = range;
  }
};

namespace {

using Island = IslandEngine::Island;
using Shared = IslandEngine::Shared;

}  // namespace

IslandEngine::IslandEngine(const stats::HaplotypeEvaluator& evaluator,
                           IslandConfig config,
                           const FeasibilityFilter& filter)
    : evaluator_(&evaluator), config_(std::move(config)), filter_(&filter) {
  GaEngine::check_compatible(evaluator, config_.ga);
  config_.validate();
}

IslandEngine::IslandEngine(const stats::HaplotypeEvaluator& evaluator,
                           IslandConfig config)
    : evaluator_(&evaluator), config_(std::move(config)),
      filter_(&own_filter_) {
  GaEngine::check_compatible(evaluator, config_.ga);
  config_.validate();
}

namespace {

/// Free helpers operating on one island — kept out of the class so the
/// header stays minimal. All take the island by reference from its own
/// thread; `shared` members they touch are the thread-safe surfaces.

void record_error(Shared& shared, std::exception_ptr error) {
  {
    const std::lock_guard<std::mutex> lock(shared.error_mutex);
    if (!shared.error) shared.error = std::move(error);
  }
  shared.stop.store(true, std::memory_order_relaxed);
  shared.coord_cv.notify_one();
}

bool submit(Island& island, Shared& shared, PendingRecord record) {
  const std::uint64_t ticket = island.next_ticket++;
  if (!shared.stream->submit(island.index, ticket, record.individual.snps())) {
    return false;  // stream closed: shutting down
  }
  island.pending.emplace(ticket, std::move(record));
  return true;
}

void step_completed(Island& island, Shared& shared) {
  ++island.steps;
  ++island.steps_since_sync;
  ++island.steps_since_migration;
  shared.total_steps.fetch_add(1, std::memory_order_relaxed);
  shared.coord_cv.notify_one();
}

void publish_rates(Island& island, Shared& shared) {
  if (!island.mutation_delta.empty()) {
    shared.mutation_rates->merge(island.index, island.mutation_delta);
    island.mutation_delta.clear();
  }
  if (!island.crossover_delta.empty()) {
    shared.crossover_rates->merge(island.index, island.crossover_delta);
    island.crossover_delta.clear();
  }
  if (island.mutation_snapshot.version !=
      shared.mutation_rates->version()) {
    island.mutation_snapshot = shared.mutation_rates->snapshot();
  }
  if (island.crossover_snapshot.version !=
      shared.crossover_rates->version()) {
    island.crossover_snapshot = shared.crossover_rates->snapshot();
  }
  if (island.subpop.size() > 0) {
    shared.publish_range(island.index, island.subpop.fitness_range());
  }
  island.steps_since_sync = 0;
}

}  // namespace

// The remaining helpers need the engine's config/filter/callback, so
// they are members in spirit; implemented as file-local functions that
// take the engine explicitly to keep the header free of detail types.
namespace {

struct LoopContext {
  IslandEngine* engine;
  const IslandConfig* config;
  const FeasibilityFilter* filter;
  const std::function<void(const IslandEvent&)>* callback;
};

void emit(const LoopContext& ctx, Island& island, Shared& shared,
          IslandEvent::Kind kind) {
  if (!*ctx.callback) return;
  IslandEvent event;
  event.kind = kind;
  event.island = island.index;
  event.haplotype_size = island.subpop.haplotype_size();
  event.step = island.steps;
  event.wall_seconds = shared.wall_seconds();
  if (island.subpop.size() > 0) {
    event.best_fitness = island.subpop.best().fitness();
    event.worst_fitness = island.subpop.worst().fitness();
  }
  event.in_flight = static_cast<std::uint32_t>(island.pending.size());
  event.rate_version = island.mutation_snapshot.version;
  event.evaluations = shared.evaluations_used();
  const std::lock_guard<std::mutex> lock(shared.event_mutex);
  (*ctx.callback)(event);
}

/// Records a strict improvement of the island's best (the global
/// stagnation clock resets) and emits the telemetry event.
void check_improvement(const LoopContext& ctx, Island& island,
                       Shared& shared) {
  if (island.subpop.size() == 0) return;
  const double best = island.subpop.best().fitness();
  if (island.has_best && best <= island.local_best + kImprovementEpsilon) {
    return;
  }
  const bool real = island.has_best;
  island.local_best = best;
  island.has_best = true;
  if (real) {
    shared.last_improvement.store(
        shared.total_steps.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    emit(ctx, island, shared, IslandEvent::Kind::kImprovement);
  }
}

/// Routes an evaluated, feasible offspring to its owner: own size →
/// §4.6 replacement here; other size → forwarded over the migration
/// channel (the breeding island keeps the adaptive-rate credit, the
/// owner gets the individual).
void place_offspring(const LoopContext& ctx, Island& island, Shared& shared,
                     HaplotypeIndividual individual) {
  if (individual.size() == island.subpop.haplotype_size()) {
    if (island.subpop.try_insert(std::move(individual))) {
      check_improvement(ctx, island, shared);
    }
  } else {
    const std::uint32_t owner = individual.size() - shared.min_size;
    (void)shared.router->send(island.index, owner, IslandTag::kOffspring,
                              individual);
  }
}

/// A resolved mutation offspring (the trial-group winner or a size
/// mutation's single child): record progress, then place it.
void finish_mutation(const LoopContext& ctx, Island& island, Shared& shared,
                     HaplotypeIndividual individual, std::uint32_t op,
                     double baseline) {
  const std::uint32_t size = individual.size();
  if (size < ctx.config->ga.min_size || size > ctx.config->ga.max_size) {
    return;
  }
  // §2.3: infeasible offspring are evaluated — the cost is already
  // paid — but never inserted and never credited (same as the sync
  // engine's skip).
  if (ctx.filter->enabled() && !ctx.filter->feasible(individual.snps())) {
    return;
  }
  const double child_norm = shared.norm(size, individual.fitness());
  island.mutation_delta.record(op, child_norm - baseline);
  place_offspring(ctx, island, shared, std::move(individual));
}

void finish_cross_child(const LoopContext& ctx, Island& island,
                        Shared& shared, CrossoverApplication& app,
                        HaplotypeIndividual individual, double baseline) {
  const std::uint32_t size = individual.size();
  if (size < ctx.config->ga.min_size || size > ctx.config->ga.max_size) {
    return;
  }
  if (ctx.filter->enabled() && !ctx.filter->feasible(individual.snps())) {
    return;
  }
  const double child_norm = shared.norm(size, individual.fitness());
  app.sum += child_norm - baseline;
  ++app.counted;
  place_offspring(ctx, island, shared, std::move(individual));
}

void integrate(const LoopContext& ctx, Island& island, Shared& shared,
               const stats::StreamResult& result) {
  auto it = island.pending.find(result.ticket);
  if (it == island.pending.end()) return;
  PendingRecord record = std::move(it->second);
  island.pending.erase(it);
  if (result.failed) {
    shared.failed_offspring.fetch_add(1, std::memory_order_relaxed);
  } else {
    record.individual.set_fitness(result.fitness);
  }

  switch (record.kind) {
    case PendingRecord::Kind::kInitial: {
      if (!result.failed) {
        // try_insert, not add_initial: a cross-size offspring forwarded
        // by an island that finished initializing earlier may already
        // have filled this subpopulation, and then the initial member
        // competes on fitness like any other arrival.
        island.subpop.try_insert(std::move(record.individual));
      }
      if (--island.initials_outstanding == 0) {
        island.initialized = true;
        if (island.subpop.size() > 0) {
          shared.publish_range(island.index, island.subpop.fitness_range());
          island.local_best = island.subpop.best().fitness();
          island.has_best = true;
        }
        const std::uint32_t done =
            shared.initialized_islands.fetch_add(1,
                                                 std::memory_order_relaxed) +
            1;
        if (done == shared.island_count) {
          // Stagnation is measured from full initialization, not from
          // whatever early improvements the first islands made while
          // the last one was still scoring its initial members.
          shared.last_improvement.store(
              shared.total_steps.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
        }
        shared.coord_cv.notify_one();
        emit(ctx, island, shared, IslandEvent::Kind::kInitialized);
      }
      break;
    }

    case PendingRecord::Kind::kMutation: {
      if (record.group >= 0) {
        auto git = island.groups.find(record.group);
        if (git == island.groups.end()) break;
        TrialGroup& group = git->second;
        if (!result.failed &&
            (!group.any ||
             record.individual.fitness() > group.best.fitness())) {
          group.any = true;
          group.best = std::move(record.individual);
        }
        if (--group.remaining == 0) {
          if (group.any) {
            finish_mutation(ctx, island, shared, std::move(group.best),
                            MutationKind::kSnp, group.baseline);
          }
          island.groups.erase(git);
          --island.inflight_applications;
          step_completed(island, shared);
        }
      } else {
        if (!result.failed) {
          finish_mutation(ctx, island, shared, std::move(record.individual),
                          record.op, record.baseline);
        }
        --island.inflight_applications;
        step_completed(island, shared);
      }
      break;
    }

    case PendingRecord::Kind::kCrossChild: {
      auto ait = island.applications.find(record.application);
      if (ait == island.applications.end()) break;
      CrossoverApplication& app = ait->second;
      if (!result.failed) {
        finish_cross_child(ctx, island, shared, app,
                           std::move(record.individual), record.baseline);
      }
      if (--app.remaining == 0) {
        if (app.counted > 0) {
          island.crossover_delta.record(
              app.op, app.sum / static_cast<double>(app.counted));
        }
        island.applications.erase(ait);
        --island.inflight_applications;
        step_completed(island, shared);
      }
      break;
    }

    case PendingRecord::Kind::kImmigrant: {
      if (result.failed) break;
      Subpopulation& sub = island.subpop;
      // Replace only if the occupant is still below the current mean —
      // between the wave's scan and this arrival, replacement may have
      // upgraded the slot.
      if (record.target_slot < sub.size() &&
          sub.member(record.target_slot).fitness() < sub.mean_fitness()) {
        sub.replace(record.target_slot, std::move(record.individual));
        check_improvement(ctx, island, shared);
      }
      break;
    }
  }
}

void drain_migration(const LoopContext& ctx, Island& island,
                     Shared& shared) {
  const std::vector<MigrationRouter::Incoming> mail =
      shared.router->drain(island.index);
  if (mail.empty()) return;
  for (const auto& entry : mail) {
    if (entry.tag == IslandTag::kOffspring) {
      if (entry.individual.size() != island.subpop.haplotype_size()) {
        continue;  // routing bug upstream; never insert a wrong size
      }
      if (island.subpop.try_insert(entry.individual)) {
        check_improvement(ctx, island, shared);
      }
    } else if (entry.tag == IslandTag::kElite) {
      // A neighbor's elite: a mate for the inter-population crossover.
      if (island.migrant_pool.size() >= kMigrantPoolCap) {
        island.migrant_pool.erase(island.migrant_pool.begin());
      }
      island.migrant_pool.push_back(entry.individual);
    }
  }
  emit(ctx, island, shared, IslandEvent::Kind::kMigrationIn);
}

void emigrate(const LoopContext& ctx, Island& island, Shared& shared) {
  island.steps_since_migration = 0;
  if (island.subpop.size() == 0) return;
  const std::uint32_t n = shared.island_count;
  bool sent = false;
  // Ring-of-neighbors topology over the size ladder: size k sends one
  // elite, its best, to k−1 and k+1, the classes its
  // reduction/augmentation offspring land in anyway.
  const HaplotypeIndividual& elite =
      island.subpop.member(island.subpop.best_index());
  for (const std::int64_t delta : {-1, +1}) {
    const std::int64_t to = static_cast<std::int64_t>(island.index) + delta;
    if (to < 0 || to >= static_cast<std::int64_t>(n)) continue;
    if (shared.router->send(island.index, static_cast<std::uint32_t>(to),
                            IslandTag::kElite, elite)) {
      sent = true;
    }
  }
  if (sent) emit(ctx, island, shared, IslandEvent::Kind::kMigrationOut);
}

/// §4.4 random immigrants, per island: when the whole engine has gone
/// a stagnation window without improvement, this island replaces its
/// below-mean members with fresh random individuals. `immigrant_mark`
/// spaces waves out so one long stagnation does not flood the island
/// every loop iteration.
void maybe_immigrants(const LoopContext& ctx, Island& island,
                      Shared& shared) {
  const GaConfig& cfg = ctx.config->ga;
  if (!cfg.schemes.random_immigrants) return;
  const std::uint64_t window =
      static_cast<std::uint64_t>(cfg.random_immigrant_stagnation) *
      ctx.config->applications_per_generation();
  const std::uint64_t total =
      shared.total_steps.load(std::memory_order_relaxed);
  const std::uint64_t reference =
      std::max(shared.last_improvement.load(std::memory_order_relaxed),
               island.immigrant_mark);
  if (total < reference + window) return;
  island.immigrant_mark = total;

  Subpopulation& sub = island.subpop;
  if (sub.size() == 0) return;
  const double mean = sub.mean_fitness();
  bool submitted = false;
  for (std::uint32_t slot = 0; slot < sub.size(); ++slot) {
    if (sub.member(slot).fitness() >= mean) continue;
    PendingRecord record;
    record.individual = ctx.filter->random_feasible(
        shared.snp_count, sub.haplotype_size(), island.rng);
    record.kind = PendingRecord::Kind::kImmigrant;
    record.target_slot = slot;
    if (submit(island, shared, std::move(record))) submitted = true;
  }
  if (submitted) {
    shared.immigrant_events.fetch_add(1, std::memory_order_relaxed);
    emit(ctx, island, shared, IslandEvent::Kind::kImmigrants);
  }
}

/// One operator application event — the steady-state analogue of one of
/// the sync engine's crossovers/mutations_per_generation slots. A
/// global-rate miss completes the step immediately (the event elapsed
/// without applying, exactly as in the generational loop).
void breed(const LoopContext& ctx, Island& island, Shared& shared) {
  const GaConfig& cfg = ctx.config->ga;
  const double total_events = static_cast<double>(
      cfg.crossovers_per_generation + cfg.mutations_per_generation);
  const bool crossover =
      island.rng.uniform() * total_events <
      static_cast<double>(cfg.crossovers_per_generation);

  if (crossover) {
    if (!island.rng.bernoulli(cfg.crossover_global_rate)) {
      step_completed(island, shared);
      return;
    }
    std::uint32_t op =
        island.crossover_snapshot.sample(island.rng.uniform());
    const HaplotypeIndividual* mate = nullptr;
    if (op == CrossoverKind::kInter) {
      if (island.migrant_pool.empty()) {
        op = CrossoverKind::kIntra;  // no foreign mate available yet
      } else {
        mate = &island.migrant_pool[island.rng.below(
            island.migrant_pool.size())];
      }
    }
    const Subpopulation& sub = island.subpop;
    if (op == CrossoverKind::kIntra && sub.size() < 2) {
      step_completed(island, shared);
      return;
    }
    const std::uint32_t i1 = shared.selector->tournament(sub, island.rng);
    const HaplotypeIndividual& p1 = sub.member(i1);
    const HaplotypeIndividual* p2 = mate;
    if (op == CrossoverKind::kIntra) {
      std::uint32_t i2 = shared.selector->tournament(sub, island.rng);
      for (int retry = 0; retry < 3 && i2 == i1; ++retry) {
        i2 = shared.selector->tournament(sub, island.rng);
      }
      if (i2 == i1) {
        step_completed(island, shared);
        return;
      }
      p2 = &sub.member(i2);
    }

    auto [c1, c2] = shared.operators->uniform_crossover(p1, *p2, island.rng);
    const double n1 = shared.norm(p1.size(), p1.fitness());
    const double n2 = shared.norm(p2->size(), p2->fitness());

    const std::int64_t app_id = island.next_application++;
    CrossoverApplication app;
    app.remaining = 2;
    app.op = op;
    island.applications.emplace(app_id, app);

    PendingRecord first;
    first.individual = std::move(c1);
    first.kind = PendingRecord::Kind::kCrossChild;
    first.op = op;
    first.application = app_id;
    // Intra: children compared with the mean of both parents; inter:
    // each child with its same-size parent (§4.3.2).
    first.baseline = op == CrossoverKind::kIntra ? 0.5 * (n1 + n2) : n1;

    PendingRecord second;
    second.individual = std::move(c2);
    second.kind = PendingRecord::Kind::kCrossChild;
    second.op = op;
    second.application = app_id;
    second.baseline = op == CrossoverKind::kIntra ? 0.5 * (n1 + n2) : n2;

    ++island.inflight_applications;
    if (!submit(island, shared, std::move(first)) ||
        !submit(island, shared, std::move(second))) {
      // Stream closed mid-application: the run is shutting down; the
      // partial application will simply never resolve.
      return;
    }
  } else {
    if (!island.rng.bernoulli(cfg.mutation_global_rate)) {
      step_completed(island, shared);
      return;
    }
    const Subpopulation& sub = island.subpop;
    if (sub.size() < 1) {
      step_completed(island, shared);
      return;
    }
    std::uint32_t op = island.mutation_snapshot.sample(island.rng.uniform());
    const HaplotypeIndividual& parent =
        sub.member(shared.selector->tournament(sub, island.rng));
    const double parent_norm = shared.norm(parent.size(), parent.fitness());

    std::optional<HaplotypeIndividual> child;
    if (op == MutationKind::kReduction) {
      child = shared.operators->reduction(parent, island.rng);
      if (!child) op = MutationKind::kSnp;  // inapplicable at min size
    } else if (op == MutationKind::kAugmentation) {
      child = shared.operators->augmentation(parent, island.rng);
      if (!child) op = MutationKind::kSnp;  // inapplicable at max size
    }

    if (op == MutationKind::kSnp) {
      auto trials = shared.operators->snp_mutation_trials(parent, island.rng);
      const std::int64_t group_id = island.next_group++;
      TrialGroup group;
      group.remaining = static_cast<std::uint32_t>(trials.size());
      group.baseline = parent_norm;
      island.groups.emplace(group_id, group);
      ++island.inflight_applications;
      for (auto& trial : trials) {
        PendingRecord record;
        record.individual = std::move(trial);
        record.kind = PendingRecord::Kind::kMutation;
        record.op = MutationKind::kSnp;
        record.baseline = parent_norm;
        record.group = group_id;
        if (!submit(island, shared, std::move(record))) return;
      }
    } else {
      PendingRecord record;
      record.individual = std::move(*child);
      record.kind = PendingRecord::Kind::kMutation;
      record.op = op;
      record.baseline = parent_norm;
      ++island.inflight_applications;
      if (!submit(island, shared, std::move(record))) return;
    }
  }
}

/// Checkpoint rendezvous: publish merged state, ack, sleep until the
/// coordinator releases the pause.
void maybe_pause(const LoopContext& ctx, Island& island, Shared& shared) {
  if (!shared.pause_flag.load(std::memory_order_relaxed)) return;
  publish_rates(island, shared);
  drain_migration(ctx, island, shared);
  std::unique_lock<std::mutex> lock(shared.pause_mutex);
  if (!shared.pause_requested) return;
  ++shared.paused;
  shared.pause_cv.notify_all();
  shared.pause_cv.wait(lock, [&] {
    return !shared.pause_requested ||
           shared.stop.load(std::memory_order_relaxed);
  });
  --shared.paused;
  shared.pause_cv.notify_all();
}

}  // namespace

void IslandEngine::island_loop(Island& island, Shared& shared) {
  const LoopContext ctx{this, &config_, filter_, &callback_};
  try {
    while (!shared.stop.load(std::memory_order_relaxed)) {
      maybe_pause(ctx, island, shared);
      drain_migration(ctx, island, shared);

      // Integrate whatever has finished. Block only when there is
      // nothing else to do: results outstanding and the breeding window
      // full (or the island still initializing).
      std::vector<stats::StreamResult> results =
          shared.stream->poll(island.index);
      const bool window_full =
          island.inflight_applications >= config_.max_pending;
      if (results.empty() && !island.pending.empty() &&
          (window_full || !island.initialized)) {
        results = shared.stream->wait(island.index, config_.poll_timeout);
      }
      for (const auto& result : results) {
        integrate(ctx, island, shared, result);
      }

      if (!island.initialized || island.subpop.size() == 0) continue;

      if (island.steps_since_sync >= config_.rate_sync_interval) {
        publish_rates(island, shared);
      }
      if (island.steps_since_migration >= config_.migration_interval) {
        emigrate(ctx, island, shared);
      }
      maybe_immigrants(ctx, island, shared);

      while (island.inflight_applications < config_.max_pending &&
             !shared.stop.load(std::memory_order_relaxed) &&
             !shared.pause_flag.load(std::memory_order_relaxed)) {
        breed(ctx, island, shared);
      }
    }
    // Final flush so the run's last rate deltas are not lost to the
    // result collection (total_applications telemetry).
    publish_rates(island, shared);
  } catch (...) {
    record_error(shared, std::current_exception());
  }
}

IslandRunResult IslandEngine::run() {
  const GaConfig& cfg = config_.ga;
  const std::uint32_t snp_count = evaluator_->dataset().snp_count();
  const std::uint32_t island_count = cfg.max_size - cfg.min_size + 1;
  const std::uint32_t apps_per_generation =
      config_.applications_per_generation();

  OperatorConfig op_config;
  op_config.snp_count = snp_count;
  op_config.min_size = cfg.min_size;
  op_config.max_size = cfg.max_size;
  op_config.snp_mutation_trials = cfg.snp_mutation_trials;
  const VariationOperators operators(op_config, *filter_);
  const Selector selector(cfg.selection);

  std::vector<std::string> mutation_names{"snp"};
  if (cfg.schemes.size_mutations) {
    mutation_names.push_back("reduction");
    mutation_names.push_back("augmentation");
  }
  SharedRateController mutation_rates(
      mutation_names, cfg.mutation_global_rate,
      cfg.schemes.size_mutations ? cfg.min_operator_rate : 0.0,
      island_count);
  if (!cfg.schemes.adaptive_mutation) mutation_rates.freeze();

  std::vector<std::string> crossover_names{"intra"};
  if (cfg.schemes.inter_population_crossover) {
    crossover_names.push_back("inter");
  }
  SharedRateController crossover_rates(
      crossover_names, cfg.crossover_global_rate,
      cfg.schemes.inter_population_crossover ? cfg.min_operator_rate : 0.0,
      island_count);
  if (!cfg.schemes.adaptive_crossover) crossover_rates.freeze();

  stats::EvaluationStreamConfig stream_config;
  stream_config.lanes = config_.lanes;
  stream_config.max_coalesce = config_.max_coalesce;
  stream_config.fault_injector = config_.fault_injector;
  stats::EvaluationStream stream(*evaluator_, island_count,
                                 std::move(stream_config));
  MigrationRouter router(island_count);

  Shared shared;
  shared.operators = &operators;
  shared.selector = &selector;
  shared.stream = &stream;
  shared.router = &router;
  shared.mutation_rates = &mutation_rates;
  shared.crossover_rates = &crossover_rates;
  shared.island_count = island_count;
  shared.min_size = cfg.min_size;
  shared.snp_count = snp_count;
  shared.evaluator = evaluator_;
  shared.ranges.resize(island_count);
  shared.start = std::chrono::steady_clock::now();
  shared.evaluations_at_start = evaluator_->evaluation_count();

  const std::vector<std::uint32_t> capacities =
      Multipopulation::allocate_capacities(
          snp_count, cfg.min_size, cfg.max_size, cfg.population_size,
          cfg.min_subpopulation, cfg.allocation);

  std::vector<std::unique_ptr<Island>> islands;
  islands.reserve(island_count);
  for (std::uint32_t i = 0; i < island_count; ++i) {
    islands.push_back(std::make_unique<Island>(i, cfg.min_size + i,
                                               capacities[i], cfg.seed));
    islands.back()->mutation_delta =
        RateDelta(mutation_rates.operator_count());
    islands.back()->crossover_delta =
        RateDelta(crossover_rates.operator_count());
    islands.back()->mutation_snapshot = mutation_rates.snapshot();
    islands.back()->crossover_snapshot = crossover_rates.snapshot();
  }

  IslandRunResult result;
  const std::uint64_t fingerprint =
      cfg.checkpoint.enabled() ? checkpoint_fingerprint(cfg, snp_count) : 0;

  // --- resume or fresh initialization --------------------------------
  if (cfg.checkpoint.resume && checkpoint_exists(cfg.checkpoint.path)) {
    const IslandCheckpoint cp =
        load_island_checkpoint(cfg.checkpoint.path);
    if (cp.fingerprint != fingerprint) {
      throw CheckpointError("checkpoint: " + cfg.checkpoint.path +
                            " was written under an incompatible "
                            "configuration or dataset");
    }
    if (cp.islands.size() != island_count) {
      throw CheckpointError("checkpoint: island count mismatch in " +
                            cfg.checkpoint.path);
    }
    mutation_rates.restore(cp.mutation_lane_progress,
                           cp.mutation_lane_counts);
    crossover_rates.restore(cp.crossover_lane_progress,
                            cp.crossover_lane_counts);
    for (std::uint32_t i = 0; i < island_count; ++i) {
      Island& island = *islands[i];
      const IslandCheckpoint::IslandState& state = cp.islands[i];
      island.subpop.restore_members(state.members);
      island.rng.set_state(state.rng_state);
      island.steps = state.steps;
      island.immigrant_mark = state.immigrant_mark;
      island.initialized = true;
      island.mutation_snapshot = mutation_rates.snapshot();
      island.crossover_snapshot = crossover_rates.snapshot();
      if (island.subpop.size() > 0) {
        shared.ranges[i] = island.subpop.fitness_range();
        island.local_best = island.subpop.best().fitness();
        island.has_best = true;
      }
    }
    shared.total_steps.store(cp.total_steps);
    shared.last_improvement.store(cp.last_improvement_step);
    shared.immigrant_events.store(cp.immigrant_events);
    shared.evaluations_base = cp.evaluations;
    shared.initialized_islands.store(island_count);
    result.resumed_steps = cp.total_steps;
  } else {
    // Each island seeds and submits its own initial members; scoring
    // overlaps across islands from the first moment (no init barrier).
    std::vector<std::vector<HaplotypeIndividual>> seeded(island_count);
    for (const auto& snps : cfg.warm_starts) {
      HaplotypeIndividual candidate{std::vector<genomics::SnpIndex>(snps)};
      auto& bucket = seeded[candidate.size() - cfg.min_size];
      const bool duplicate = std::any_of(
          bucket.begin(), bucket.end(), [&](const HaplotypeIndividual& m) {
            return m.same_snps(candidate);
          });
      if (!duplicate &&
          bucket.size() < capacities[candidate.size() - cfg.min_size]) {
        bucket.push_back(std::move(candidate));
      }
    }
    for (std::uint32_t i = 0; i < island_count; ++i) {
      Island& island = *islands[i];
      std::vector<HaplotypeIndividual> members = std::move(seeded[i]);
      std::uint32_t attempts = 0;
      while (members.size() < island.subpop.capacity() &&
             attempts < 200 * island.subpop.capacity()) {
        ++attempts;
        HaplotypeIndividual candidate = filter_->random_feasible(
            snp_count, island.subpop.haplotype_size(), island.rng);
        const bool duplicate = std::any_of(
            members.begin(), members.end(),
            [&](const HaplotypeIndividual& m) {
              return m.same_snps(candidate);
            });
        if (!duplicate) members.push_back(std::move(candidate));
      }
      island.initials_outstanding =
          static_cast<std::uint32_t>(members.size());
      for (auto& member : members) {
        PendingRecord record;
        record.individual = std::move(member);
        record.kind = PendingRecord::Kind::kInitial;
        if (!submit(island, shared, std::move(record))) {
          --island.initials_outstanding;
        }
      }
    }
  }

  // --- island threads + coordinator loop ------------------------------
  std::vector<std::thread> threads;
  threads.reserve(island_count);
  for (auto& island : islands) {
    Island* raw = island.get();
    threads.emplace_back([this, raw, &shared] { island_loop(*raw, shared); });
  }

  const std::uint64_t stagnation_steps =
      static_cast<std::uint64_t>(cfg.stagnation_generations) *
      apps_per_generation;
  const std::uint64_t hard_cap =
      static_cast<std::uint64_t>(cfg.max_generations) * apps_per_generation;
  const std::uint64_t checkpoint_every =
      static_cast<std::uint64_t>(cfg.checkpoint.every) * apps_per_generation;
  std::uint64_t next_checkpoint =
      cfg.checkpoint.enabled()
          ? (result.resumed_steps / checkpoint_every + 1) * checkpoint_every
          : 0;

  // Event-driven coordination: islands signal coord_cv after every
  // integrated step, so termination checks run right when progress
  // happens instead of on a polling cadence that preempts lane threads
  // on small hosts. The coarse fallback timeout keeps the loop live
  // (evaluation-budget and hard-cap checks, and recovery from a lost
  // notify) even when no island advances.
  constexpr std::chrono::milliseconds kCoordinatorFallback{50};
  std::uint64_t observed_steps = ~std::uint64_t{0};
  while (!shared.stop.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(shared.coord_mutex);
      shared.coord_cv.wait_for(lock, kCoordinatorFallback, [&] {
        return shared.stop.load(std::memory_order_relaxed) ||
               shared.total_steps.load(std::memory_order_relaxed) !=
                   observed_steps;
      });
    }
    const std::uint64_t total =
        shared.total_steps.load(std::memory_order_relaxed);
    observed_steps = total;
    if (shared.initialized_islands.load(std::memory_order_relaxed) ==
        island_count) {
      const std::uint64_t reference =
          shared.last_improvement.load(std::memory_order_relaxed);
      if (total >= reference + stagnation_steps) {
        result.terminated_by_stagnation = true;
        shared.stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (total >= hard_cap) {
      shared.stop.store(true, std::memory_order_relaxed);
      break;
    }
    if (cfg.max_evaluations > 0 &&
        shared.evaluations_used() >= cfg.max_evaluations) {
      shared.stop.store(true, std::memory_order_relaxed);
      break;
    }

    if (cfg.checkpoint.enabled() && total >= next_checkpoint) {
      // Rendezvous: pause every island at a loop boundary, snapshot,
      // resume. Islands publish their rate deltas and drain migration
      // before acking, so the cut is consistent (see checkpoint.hpp).
      {
        std::unique_lock<std::mutex> lock(shared.pause_mutex);
        shared.pause_requested = true;
        shared.pause_flag.store(true, std::memory_order_relaxed);
        shared.pause_cv.wait(lock, [&] {
          return shared.paused == island_count ||
                 shared.stop.load(std::memory_order_relaxed);
        });
      }
      if (!shared.stop.load(std::memory_order_relaxed)) {
        IslandCheckpoint cp;
        cp.fingerprint = fingerprint;
        cp.total_steps = shared.total_steps.load(std::memory_order_relaxed);
        cp.evaluations = shared.evaluations_used();
        cp.last_improvement_step =
            shared.last_improvement.load(std::memory_order_relaxed);
        cp.immigrant_events =
            shared.immigrant_events.load(std::memory_order_relaxed);
        cp.mutation_lane_progress = mutation_rates.lane_progress();
        cp.mutation_lane_counts = mutation_rates.lane_counts();
        cp.crossover_lane_progress = crossover_rates.lane_progress();
        cp.crossover_lane_counts = crossover_rates.lane_counts();
        for (const auto& island : islands) {
          IslandCheckpoint::IslandState state;
          state.steps = island->steps;
          state.immigrant_mark = island->immigrant_mark;
          state.rng_state = island->rng.state();
          state.members = island->subpop.members();
          cp.islands.push_back(std::move(state));
        }
        save_island_checkpoint(cfg.checkpoint.path, cp);
        if (callback_) {
          IslandEvent event;
          event.kind = IslandEvent::Kind::kCheckpoint;
          event.step = cp.total_steps;
          event.wall_seconds = shared.wall_seconds();
          event.evaluations = cp.evaluations;
          const std::lock_guard<std::mutex> lock(shared.event_mutex);
          callback_(event);
        }
      }
      {
        const std::lock_guard<std::mutex> lock(shared.pause_mutex);
        shared.pause_requested = false;
        shared.pause_flag.store(false, std::memory_order_relaxed);
      }
      shared.pause_cv.notify_all();
      next_checkpoint += checkpoint_every;
    }
  }

  // Release any island parked in the pause rendezvous, then join.
  {
    const std::lock_guard<std::mutex> lock(shared.pause_mutex);
    shared.pause_requested = false;
    shared.pause_flag.store(false, std::memory_order_relaxed);
  }
  shared.pause_cv.notify_all();
  for (auto& thread : threads) thread.join();
  // close() drains the lanes and joins them: everything this run
  // submitted is delivered before it returns.
  stream.close();
  router.close();

  {
    const std::lock_guard<std::mutex> lock(shared.error_mutex);
    if (shared.error) std::rethrow_exception(shared.error);
  }

  // close() flushed this run's work, so results that raced the
  // shutdown are sitting in the completion queues: integrate
  // them single-threaded so no paid-for evaluation is wasted (and a
  // stop during initialization still yields populated islands).
  {
    const LoopContext ctx{this, &config_, filter_, &callback_};
    for (auto& island : islands) {
      for (const auto& result_entry : stream.poll(island->index)) {
        integrate(ctx, *island, shared, result_entry);
      }
    }
  }

  for (const auto& island : islands) {
    LDGA_EXPECTS(island->subpop.size() > 0);
    result.best_by_size.push_back(island->subpop.best());
    result.steps_by_island.push_back(island->steps);
  }
  result.total_steps = shared.total_steps.load(std::memory_order_relaxed);
  result.evaluations = shared.evaluations_used();
  result.migrations_sent = router.sent();
  result.migrations_received = router.received();
  result.immigrant_events =
      shared.immigrant_events.load(std::memory_order_relaxed);
  result.failed_offspring =
      shared.failed_offspring.load(std::memory_order_relaxed);
  result.wall_seconds = shared.wall_seconds();
  result.stream_stats = stream.stats();
  result.cache_stats = evaluator_->cache_stats();
  result.stage_timings = evaluator_->stage_timings();
  return result;
}

}  // namespace ldga::ga

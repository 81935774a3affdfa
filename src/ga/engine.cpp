#include "ga/engine.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace ldga::ga {

namespace {

/// Strict-improvement tolerance for stagnation detection.
constexpr double kImprovementEpsilon = 1e-9;

}  // namespace

void GaConfig::validate() const {
  if (min_size < 1 || min_size > max_size) {
    throw ConfigError("GaConfig: need 1 <= min_size <= max_size");
  }
  const std::uint32_t n_sizes = max_size - min_size + 1;
  if (population_size < n_sizes * min_subpopulation) {
    throw ConfigError(
        "GaConfig: population_size too small for the per-size minimum");
  }
  if (min_subpopulation < 2) {
    throw ConfigError("GaConfig: min_subpopulation must be >= 2");
  }
  if (crossover_global_rate <= 0.0 || crossover_global_rate > 1.0 ||
      mutation_global_rate <= 0.0 || mutation_global_rate > 1.0) {
    throw ConfigError("GaConfig: global operator rates must be in (0, 1]");
  }
  if (min_operator_rate < 0.0 ||
      3.0 * min_operator_rate > mutation_global_rate ||
      2.0 * min_operator_rate > crossover_global_rate) {
    throw ConfigError("GaConfig: min_operator_rate too large");
  }
  if (crossovers_per_generation + mutations_per_generation == 0) {
    throw ConfigError("GaConfig: no variation per generation");
  }
  if (snp_mutation_trials < 1) {
    throw ConfigError("GaConfig: snp_mutation_trials must be >= 1");
  }
  if (stagnation_generations < 1 || max_generations < 1) {
    throw ConfigError("GaConfig: generation limits must be >= 1");
  }
  if (max_evaluations > 0 && max_evaluations < population_size) {
    throw ConfigError(
        "GaConfig: max_evaluations (" + std::to_string(max_evaluations) +
        ") is smaller than population_size (" +
        std::to_string(population_size) +
        "); the budget would be exhausted by initialization — raise it or "
        "set 0 for unlimited");
  }
  checkpoint.validate();
  for (const auto& snps : warm_starts) {
    const ga::HaplotypeIndividual canonical{
        std::vector<genomics::SnpIndex>(snps)};
    if (canonical.size() < min_size || canonical.size() > max_size) {
      throw ConfigError("GaConfig: warm start '" + canonical.to_string() +
                        "' is outside the size range");
    }
  }
}

GaConfig GaConfig::validated() const {
  validate();
  return *this;
}

struct GaEngine::Pending {
  enum class Kind : std::uint8_t {
    Initial,
    Mutation,    ///< one trial of a mutation application
    CrossChild,  ///< one child of a crossover application
    Immigrant,
  };

  HaplotypeIndividual individual;
  Kind kind = Kind::Initial;
  std::uint32_t op = 0;            ///< index within its rate controller
  double baseline = 0.0;           ///< normalized value to subtract
  std::int32_t group = -1;         ///< SNP-mutation trial group (-1: none)
  std::uint32_t application = 0;   ///< crossover application id
  std::uint32_t target_subpop = 0;  ///< immigrant destination
  std::uint32_t target_slot = 0;    ///< immigrant slot
};

void GaEngine::check_compatible(const stats::HaplotypeEvaluator& evaluator,
                                const GaConfig& config) {
  config.validate();
  if (config.max_size > evaluator.config().max_loci) {
    throw ConfigError(
        "GaEngine: max_size (" + std::to_string(config.max_size) +
        ") exceeds the evaluator's max_loci (" +
        std::to_string(evaluator.config().max_loci) +
        "); raise EvaluatorConfig::max_loci or shrink the size range");
  }
  if (config.max_size >= evaluator.dataset().snp_count()) {
    throw ConfigError(
        "GaEngine: max_size (" + std::to_string(config.max_size) +
        ") must leave spare SNPs for mutation, but the panel has only " +
        std::to_string(evaluator.dataset().snp_count()) + " SNPs");
  }
}

GaEngine::GaEngine(const stats::HaplotypeEvaluator& evaluator,
                   GaConfig config, const FeasibilityFilter& filter,
                   std::shared_ptr<stats::EvaluationBackend> backend)
    : evaluator_(&evaluator),
      config_(std::move(config)),
      filter_(&filter),
      backend_(backend ? std::move(backend)
                       : stats::make_serial_backend(evaluator)) {
  check_compatible(evaluator, config_);
}

GaEngine::GaEngine(const stats::HaplotypeEvaluator& evaluator,
                   GaConfig config,
                   std::shared_ptr<stats::EvaluationBackend> backend)
    : evaluator_(&evaluator),
      config_(std::move(config)),
      filter_(&own_filter_),
      backend_(backend ? std::move(backend)
                       : stats::make_serial_backend(evaluator)) {
  check_compatible(evaluator, config_);
}

GaResult GaEngine::run() {
  const std::uint32_t snp_count = evaluator_->dataset().snp_count();
  Rng rng(config_.seed);

  // --- operator machinery -------------------------------------------
  OperatorConfig op_config;
  op_config.snp_count = snp_count;
  op_config.min_size = config_.min_size;
  op_config.max_size = config_.max_size;
  op_config.snp_mutation_trials = config_.snp_mutation_trials;
  const VariationOperators operators(op_config, *filter_);

  std::vector<std::string> mutation_names{"snp"};
  if (config_.schemes.size_mutations) {
    mutation_names.push_back("reduction");
    mutation_names.push_back("augmentation");
  }
  AdaptiveRateController mutation_rates(
      mutation_names, config_.mutation_global_rate,
      config_.schemes.size_mutations ? config_.min_operator_rate : 0.0);
  if (!config_.schemes.adaptive_mutation) mutation_rates.freeze();

  std::vector<std::string> crossover_names{"intra"};
  if (config_.schemes.inter_population_crossover) {
    crossover_names.push_back("inter");
  }
  AdaptiveRateController crossover_rates(
      crossover_names, config_.crossover_global_rate,
      config_.schemes.inter_population_crossover ? config_.min_operator_rate
                                                 : 0.0);
  if (!config_.schemes.adaptive_crossover) crossover_rates.freeze();

  const Selector selector(config_.selection);
  // One synchronous batch per evaluation phase: the service collapses
  // cache hits and in-batch duplicates, the backend scores the rest.
  stats::EvaluationService service(*evaluator_, backend_);

  // A resumed run starts with a cold fitness cache, so its own pipeline
  // counter restarts at zero; `evaluations_base` carries the work the
  // checkpointed run had already paid for.
  std::uint64_t evaluations_base = 0;
  const std::uint64_t evaluations_at_start = evaluator_->evaluation_count();
  auto evaluations_used = [&] {
    return evaluations_base + evaluator_->evaluation_count() -
           evaluations_at_start;
  };

  // --- population initialization / checkpoint resume ------------------
  Multipopulation population(snp_count, config_.min_size, config_.max_size,
                             config_.population_size,
                             config_.min_subpopulation, config_.allocation);
  GaResult result;
  double best_signature = 0.0;
  std::uint32_t since_improvement = 0;
  std::uint32_t since_immigrants = 0;
  std::uint32_t start_generation = 1;
  const std::uint64_t fingerprint =
      config_.checkpoint.enabled() ? checkpoint_fingerprint(config_, snp_count)
                                   : 0;

  if (config_.checkpoint.resume &&
      checkpoint_exists(config_.checkpoint.path)) {
    const GaCheckpoint cp = load_checkpoint(config_.checkpoint.path);
    if (cp.fingerprint != fingerprint) {
      throw CheckpointError("checkpoint: " + config_.checkpoint.path +
                            " was written under an incompatible "
                            "configuration or dataset");
    }
    if (cp.members.size() != population.subpopulation_count()) {
      throw CheckpointError("checkpoint: subpopulation count mismatch in " +
                            config_.checkpoint.path);
    }
    population.restore_members(cp.members);
    mutation_rates.restore(cp.mutation_rates, cp.mutation_applications);
    crossover_rates.restore(cp.crossover_rates, cp.crossover_applications);
    rng.set_state(cp.rng_state);
    best_signature = cp.best_signature;
    since_improvement = cp.since_improvement;
    since_immigrants = cp.since_immigrants;
    evaluations_base = cp.evaluations;
    result.immigrant_events = cp.immigrant_events;
    result.generations = cp.generation;
    result.resumed_from_generation = cp.generation;
    start_generation = cp.generation + 1;
  } else {
    std::vector<HaplotypeIndividual> fresh;
    std::vector<std::uint32_t> destination;
    // Warm starts first (deduplicated, capacity permitting).
    std::vector<std::vector<HaplotypeIndividual>> seeded(
        population.subpopulation_count());
    for (const auto& snps : config_.warm_starts) {
      HaplotypeIndividual candidate{
          std::vector<genomics::SnpIndex>(snps)};
      auto& bucket = seeded[candidate.size() - config_.min_size];
      const bool duplicate =
          std::any_of(bucket.begin(), bucket.end(),
                      [&](const HaplotypeIndividual& m) {
                        return m.same_snps(candidate);
                      });
      if (!duplicate &&
          bucket.size() <
              population.by_size(candidate.size()).capacity()) {
        bucket.push_back(std::move(candidate));
      }
    }

    for (std::uint32_t s = 0; s < population.subpopulation_count(); ++s) {
      Subpopulation& sub = population.at(s);
      std::vector<HaplotypeIndividual> members = std::move(seeded[s]);
      std::uint32_t attempts = 0;
      while (members.size() < sub.capacity() &&
             attempts < 200 * sub.capacity()) {
        ++attempts;
        HaplotypeIndividual candidate = filter_->random_feasible(
            snp_count, sub.haplotype_size(), rng);
        const bool duplicate =
            std::any_of(members.begin(), members.end(),
                        [&](const HaplotypeIndividual& m) {
                          return m.same_snps(candidate);
                        });
        if (!duplicate) members.push_back(std::move(candidate));
      }
      for (auto& member : members) {
        fresh.push_back(std::move(member));
        destination.push_back(s);
      }
    }
    std::vector<stats::Candidate> tasks;
    tasks.reserve(fresh.size());
    for (const auto& individual : fresh) tasks.push_back(individual.snps());
    const std::vector<double> scores = service.evaluate(tasks);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      fresh[i].set_fitness(scores[i]);
      population.at(destination[i]).add_initial(std::move(fresh[i]));
    }
    best_signature = population.stagnation_signature();
  }

  // --- main loop ------------------------------------------------------
  auto norm_of = [&](const std::vector<FitnessRange>& ranges,
                     std::uint32_t size, double fitness) {
    return ranges[size - config_.min_size].normalize(fitness);
  };

  // Counter snapshots for the per-generation telemetry deltas (the
  // evaluator's counters are cumulative and may carry earlier traffic).
  stats::FitnessCacheStats prev_cache = evaluator_->cache_stats();

  for (std::uint32_t generation = start_generation;
       generation <= config_.max_generations; ++generation) {
    const std::vector<FitnessRange> ranges = population.ranges();
    std::vector<Pending> pending;
    std::uint32_t next_group = 0;
    std::uint32_t next_application = 0;

    // -- crossover applications --------------------------------------
    for (std::uint32_t event = 0;
         event < config_.crossovers_per_generation; ++event) {
      if (!rng.bernoulli(config_.crossover_global_rate)) continue;
      std::uint32_t op = crossover_rates.sample(rng.uniform());

      std::uint32_t s1 = selector.pick_subpopulation(population, rng);
      std::uint32_t s2 = s1;
      if (op == CrossoverKind::kInter) {
        s2 = selector.pick_other_subpopulation(population, s1, rng);
        if (s2 == s1) op = CrossoverKind::kIntra;  // nothing to cross with
      }
      const Subpopulation& sub1 = population.at(s1);
      const Subpopulation& sub2 = population.at(s2);
      if (sub1.size() < 1 || sub2.size() < 1) continue;
      if (op == CrossoverKind::kIntra && sub1.size() < 2) continue;

      std::uint32_t i1 = selector.tournament(sub1, rng);
      std::uint32_t i2 = selector.tournament(sub2, rng);
      if (s1 == s2) {
        for (int retry = 0; retry < 3 && i2 == i1; ++retry) {
          i2 = selector.tournament(sub1, rng);
        }
        if (i2 == i1) continue;
      }
      const HaplotypeIndividual& p1 = sub1.member(i1);
      const HaplotypeIndividual& p2 = sub2.member(i2);

      auto [c1, c2] = operators.uniform_crossover(p1, p2, rng);
      const double n1 = norm_of(ranges, p1.size(), p1.fitness());
      const double n2 = norm_of(ranges, p2.size(), p2.fitness());

      Pending first;
      first.individual = std::move(c1);
      first.kind = Pending::Kind::CrossChild;
      first.op = op;
      first.application = next_application;
      // Intra: children are compared with the mean of both parents;
      // inter: each child with its same-size parent (§4.3.2).
      first.baseline = op == CrossoverKind::kIntra ? 0.5 * (n1 + n2) : n1;

      Pending second = first;
      second.individual = std::move(c2);
      second.baseline = op == CrossoverKind::kIntra ? 0.5 * (n1 + n2) : n2;

      pending.push_back(std::move(first));
      pending.push_back(std::move(second));
      ++next_application;
    }

    // -- mutation applications ----------------------------------------
    for (std::uint32_t event = 0;
         event < config_.mutations_per_generation; ++event) {
      if (!rng.bernoulli(config_.mutation_global_rate)) continue;
      std::uint32_t op = mutation_rates.sample(rng.uniform());

      const std::uint32_t s = selector.pick_subpopulation(population, rng);
      const Subpopulation& sub = population.at(s);
      if (sub.size() < 1) continue;
      const HaplotypeIndividual& parent =
          sub.member(selector.tournament(sub, rng));
      const double parent_norm =
          norm_of(ranges, parent.size(), parent.fitness());

      std::optional<HaplotypeIndividual> child;
      if (op == MutationKind::kReduction) {
        child = operators.reduction(parent, rng);
        if (!child) op = MutationKind::kSnp;  // inapplicable at min size
      } else if (op == MutationKind::kAugmentation) {
        child = operators.augmentation(parent, rng);
        if (!child) op = MutationKind::kSnp;  // inapplicable at max size
      }

      if (op == MutationKind::kSnp) {
        // Trial variants share a group; after evaluation only the best
        // survives ("applied several times in parallel, keep the best").
        auto trials = operators.snp_mutation_trials(parent, rng);
        for (auto& trial : trials) {
          Pending entry;
          entry.individual = std::move(trial);
          entry.kind = Pending::Kind::Mutation;
          entry.op = MutationKind::kSnp;
          entry.baseline = parent_norm;
          entry.group = static_cast<std::int32_t>(next_group);
          pending.push_back(std::move(entry));
        }
        ++next_group;
      } else {
        Pending entry;
        entry.individual = std::move(*child);
        entry.kind = Pending::Kind::Mutation;
        entry.op = op;
        entry.baseline = parent_norm;
        pending.push_back(std::move(entry));
      }
    }

    // -- synchronous parallel evaluation phase ------------------------
    {
      std::vector<stats::Candidate> tasks;
      tasks.reserve(pending.size());
      for (const auto& entry : pending) {
        tasks.push_back(entry.individual.snps());
      }
      const std::vector<double> scores = service.evaluate(tasks);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        pending[i].individual.set_fitness(scores[i]);
      }
    }

    // -- resolve SNP-mutation trial groups (keep best) -----------------
    std::vector<std::int32_t> group_winner(next_group, -1);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const auto& entry = pending[i];
      if (entry.group < 0) continue;
      auto& winner = group_winner[static_cast<std::size_t>(entry.group)];
      if (winner < 0 ||
          entry.individual.fitness() >
              pending[static_cast<std::size_t>(winner)]
                  .individual.fitness()) {
        winner = static_cast<std::int32_t>(i);
      }
    }

    // -- progress accounting + replacement ----------------------------
    // Crossover progress: mean improvement of the application's
    // children, clamped at zero (§4.3.2).
    std::vector<double> application_sum(next_application, 0.0);
    std::vector<std::uint32_t> application_children(next_application, 0);

    for (std::size_t i = 0; i < pending.size(); ++i) {
      auto& entry = pending[i];
      const bool trial_loser =
          entry.group >= 0 &&
          group_winner[static_cast<std::size_t>(entry.group)] !=
              static_cast<std::int32_t>(i);
      if (trial_loser) continue;

      const std::uint32_t size = entry.individual.size();
      if (!population.has_size(size)) continue;  // operator clamps failed
      // §2.3: the feasibility conditions define a *valid* haplotype, so
      // infeasible offspring (possible after crossover mixing) are
      // evaluated — the cost is already paid — but never inserted.
      if (filter_->enabled() &&
          !filter_->feasible(entry.individual.snps())) {
        continue;
      }
      const double child_norm =
          norm_of(ranges, size, entry.individual.fitness());

      switch (entry.kind) {
        case Pending::Kind::Mutation:
          mutation_rates.record(entry.op, child_norm - entry.baseline);
          break;
        case Pending::Kind::CrossChild: {
          application_sum[entry.application] += child_norm - entry.baseline;
          ++application_children[entry.application];
          break;
        }
        case Pending::Kind::Initial:
        case Pending::Kind::Immigrant:
          break;
      }
      population.by_size(size).try_insert(std::move(entry.individual));
    }
    for (std::uint32_t app = 0; app < next_application; ++app) {
      if (application_children[app] == 0) continue;
      // Both children carry the same operator; recover it from any
      // pending entry of this application.
      for (const auto& entry : pending) {
        if (entry.kind == Pending::Kind::CrossChild &&
            entry.application == app) {
          crossover_rates.record(
              entry.op, application_sum[app] /
                            static_cast<double>(application_children[app]));
          break;
        }
      }
    }

    mutation_rates.end_generation();
    crossover_rates.end_generation();

    // -- stagnation bookkeeping ----------------------------------------
    const double signature = population.stagnation_signature();
    if (signature > best_signature + kImprovementEpsilon) {
      best_signature = signature;
      since_improvement = 0;
      since_immigrants = 0;
    } else {
      ++since_improvement;
      ++since_immigrants;
    }

    // -- random immigrants (§4.4) --------------------------------------
    bool immigrants_now = false;
    if (config_.schemes.random_immigrants &&
        since_immigrants >= config_.random_immigrant_stagnation) {
      immigrants_now = true;
      ++result.immigrant_events;
      since_immigrants = 0;

      std::vector<Pending> immigrants;
      for (std::uint32_t s = 0; s < population.subpopulation_count(); ++s) {
        Subpopulation& sub = population.at(s);
        if (sub.size() == 0) continue;
        const double mean = sub.mean_fitness();
        for (std::uint32_t slot = 0; slot < sub.size(); ++slot) {
          if (sub.member(slot).fitness() >= mean) continue;
          Pending entry;
          entry.individual =
              filter_->random_feasible(snp_count, sub.haplotype_size(), rng);
          entry.kind = Pending::Kind::Immigrant;
          entry.target_subpop = s;
          entry.target_slot = slot;
          immigrants.push_back(std::move(entry));
        }
      }
      std::vector<stats::Candidate> tasks;
      tasks.reserve(immigrants.size());
      for (const auto& entry : immigrants) {
        tasks.push_back(entry.individual.snps());
      }
      const std::vector<double> scores = service.evaluate(tasks);
      for (std::size_t i = 0; i < immigrants.size(); ++i) {
        immigrants[i].individual.set_fitness(scores[i]);
        population.at(immigrants[i].target_subpop)
            .replace(immigrants[i].target_slot,
                     std::move(immigrants[i].individual));
      }
      // Immigration may have *raised* a subpopulation best.
      const double post = population.stagnation_signature();
      if (post > best_signature + kImprovementEpsilon) {
        best_signature = post;
        since_improvement = 0;
      }
    }

    // -- telemetry ------------------------------------------------------
    result.generations = generation;
    if (callback_ || config_.record_history) {
      GenerationInfo info;
      info.generation = generation;
      info.evaluations = evaluations_used();
      info.immigrants_triggered = immigrants_now;
      for (std::uint32_t s = 0; s < population.subpopulation_count(); ++s) {
        info.best_by_size.push_back(
            population.at(s).size() > 0 ? population.at(s).best().fitness()
                                        : 0.0);
      }
      info.rates.mutation = mutation_rates.rates();
      info.rates.crossover = crossover_rates.rates();
      const stats::FitnessCacheStats cache = evaluator_->cache_stats();
      info.cache_hits = cache.hits;
      info.cache_misses = cache.misses;
      info.cache_evictions = cache.evictions;
      info.stage_timings = evaluator_->stage_timings();
      info.mc_replicates_run = evaluator_->mc_replicates_run();
      info.mc_replicates_saved = evaluator_->mc_replicates_saved();
      info.mc_batched_replicates = evaluator_->mc_batched_replicates();
      info.gen_cache_hits = cache.hits - prev_cache.hits;
      info.gen_cache_misses = cache.misses - prev_cache.misses;
      prev_cache = cache;
      if (callback_) callback_(info);
      if (config_.record_history) result.history.push_back(std::move(info));
    }

    // -- termination (§4.6) ---------------------------------------------
    if (since_improvement >= config_.stagnation_generations) {
      result.terminated_by_stagnation = true;
      break;
    }
    if (config_.max_evaluations > 0 &&
        evaluations_used() >= config_.max_evaluations) {
      break;
    }

    // -- periodic checkpoint --------------------------------------------
    // After the termination tests: a run that just finished keeps its
    // previous snapshot, so resuming it replays the tail and terminates
    // at the same generation instead of running one generation further.
    if (config_.checkpoint.enabled() &&
        generation % config_.checkpoint.every == 0) {
      GaCheckpoint cp;
      cp.fingerprint = fingerprint;
      cp.generation = generation;
      cp.evaluations = evaluations_used();
      cp.immigrant_events = result.immigrant_events;
      cp.best_signature = best_signature;
      cp.since_improvement = since_improvement;
      cp.since_immigrants = since_immigrants;
      cp.rng_state = rng.state();
      cp.mutation_rates = mutation_rates.rates();
      cp.mutation_applications = mutation_rates.lifetime_applications();
      cp.crossover_rates = crossover_rates.rates();
      cp.crossover_applications = crossover_rates.lifetime_applications();
      cp.members = population.snapshot_members();
      save_checkpoint(config_.checkpoint.path, cp);
    }
  }

  for (std::uint32_t s = 0; s < population.subpopulation_count(); ++s) {
    result.best_by_size.push_back(population.at(s).best());
  }
  result.evaluations = evaluations_used();
  result.farm_stats = backend_->farm_stats();
  result.eval_stats = service.stats();
  result.cache_stats = evaluator_->cache_stats();
  result.stage_timings = evaluator_->stage_timings();
  result.mc_replicates_run = evaluator_->mc_replicates_run();
  result.mc_replicates_saved = evaluator_->mc_replicates_saved();
  result.mc_batched_replicates = evaluator_->mc_batched_replicates();
  return result;
}

}  // namespace ldga::ga

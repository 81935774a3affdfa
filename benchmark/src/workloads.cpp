#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>

#include "analysis/ld_prefilter.hpp"
#include "ga/engine.hpp"
#include "ga/island_engine.hpp"
#include "ga/window_scan.hpp"
#include "genomics/dataset.hpp"
#include "genomics/packed_genotype.hpp"
#include "genomics/packed_store.hpp"
#include "genomics/synthetic.hpp"
#include "stats/evaluation_backend.hpp"
#include "stats/evaluator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ldga::benchmark {

namespace {

/// Compute threads every workload runs on: one closed-loop job at a
/// time, this many workers for it.
constexpr std::uint32_t kWorkers = 4;

constexpr std::array<std::string_view, 4> kWorkloadNames = {
    "region_t1_sync", "region_t1_async", "region_mc_sync", "genome_scan"};

constexpr std::array<std::pair<std::string_view, std::string_view>, 40>
    kPerLayer = {{
        {"ga.self_s", "s"},
        {"ga.generation_ms.p50", "ms"},
        {"ga.generation_ms.p95", "ms"},
        {"ga.generations", "count"},
        {"ga.evaluations", "count"},
        {"ga.budget_overshoot", "ratio"},
        {"ga.island_steps", "count"},
        {"ga.migrations", "count"},
        {"ga.scan_s", "s"},
        {"stats.service_self_s", "s"},
        {"stats.cache_hit_rate", "ratio"},
        {"stats.dup_rate", "ratio"},
        {"stats.pattern_build_cpu_s", "s"},
        {"stats.em_cpu_s", "s"},
        {"stats.clump_cpu_s", "s"},
        {"stats.cost_per_eval_ms", "ms"},
        {"stats.em_lanes_per_batch", "count"},
        {"stats.mc_replicates", "count"},
        {"stats.stream_coalesce_width", "count"},
        {"stats.stream_inflight_merge_rate", "ratio"},
        {"stats.lane_utilization", "ratio"},
        {"stats.failed_evaluations", "count"},
        {"parallel.backend_s", "s"},
        {"parallel.batch_ms.p50", "ms"},
        {"parallel.batch_ms.p95", "ms"},
        {"parallel.batch_size_mean", "count"},
        {"parallel.pool_utilization", "ratio"},
        {"parallel.cpu_per_wall", "ratio"},
        {"genomics.store_open_s", "s"},
        {"genomics.store_open_gbps", "GB/s"},
        {"genomics.minor_faults", "count"},
        {"genomics.major_faults", "count"},
        {"analysis.prefilter_s", "s"},
        {"analysis.prefilter_mpairs_per_s", "Mpairs/s"},
        {"analysis.prefilter_cpu_per_wall", "ratio"},
        {"analysis.select_s", "s"},
        {"analysis.prefilter_kernel_frac", "ratio"},
        {"analysis.signal_recall", "ratio"},
        {"trace.overhead", "ratio"},
        {"trace.coverage", "ratio"},
    }};

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return ratio(static_cast<double>(part), static_cast<double>(whole));
}

/// Independent, reproducible stream per (workload seed, purpose, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  std::uint64_t state = seed ^ (purpose << 32) ^ index;
  splitmix64(state);
  return splitmix64(state);
}

std::string scratch_file(const WorkloadOptions& options, std::string_view tag,
                         std::uint32_t index) {
  return (std::filesystem::path(options.scratch_dir) /
          (std::string(tag) + "-" + std::to_string(options.seed) + "-" +
           std::to_string(getpid()) + "-" + std::to_string(index) + ".pgs"))
      .string();
}

/// Exact text of a double (hex float), so fingerprints compare bits.
std::string bits(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

/// SNP list as a JSON array.
std::string snps_text(std::span<const genomics::SnpIndex> snps) {
  std::string out = "[";
  for (std::size_t i = 0; i < snps.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(snps[i]);
  }
  return out + "]";
}

/// Times every evaluate_batch of the sync engine's backend as a
/// `parallel.evaluate_batch` span. Traced solves only.
class TracedBackend final : public stats::EvaluationBackend {
 public:
  TracedBackend(std::shared_ptr<stats::EvaluationBackend> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(&trace) {}

  std::vector<double> evaluate_batch(
      std::span<const stats::Candidate> batch) override {
    const double begin = trace_->now_us();
    std::vector<double> out = inner_->evaluate_batch(batch);
    trace_->span("parallel.evaluate_batch", begin, trace_->now_us(),
                 "\"size\":" + std::to_string(batch.size()));
    ++batches_;
    candidates_ += batch.size();
    return out;
  }
  std::string_view name() const override { return inner_->name(); }
  std::uint32_t worker_count() const override {
    return inner_->worker_count();
  }
  parallel::FarmStats farm_stats() const override {
    return inner_->farm_stats();
  }

  double mean_batch_size() const { return ratio(candidates_, batches_); }

 private:
  std::shared_ptr<stats::EvaluationBackend> inner_;
  Trace* trace_;
  std::uint64_t batches_ = 0;
  std::uint64_t candidates_ = 0;
};

/// Every input file a workload wrote is removed when it ends.
class ScratchFiles {
 public:
  ScratchFiles() = default;
  ScratchFiles(const ScratchFiles&) = delete;
  ScratchFiles& operator=(const ScratchFiles&) = delete;
  ~ScratchFiles() {
    for (const std::string& path : paths_) {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
    }
  }
  const std::string& add(std::string path) {
    paths_.push_back(std::move(path));
    return paths_.back();
  }

 private:
  std::vector<std::string> paths_;
};

// ---------------------------------------------------------------------
// Region workloads: the paper's one-region search, on the sync engine
// or the async islands.

struct RegionSpec {
  std::string_view name;
  genomics::SyntheticConfig cohort;
  stats::EvaluatorConfig evaluator;
  /// Runs until `ga.max_evaluations`; stagnation and the generation cap
  /// are out of reach, so a solve's work does not depend on where its
  /// trajectory stalls.
  ga::GaConfig ga;
  /// Async IslandEngine; else the sync GaEngine.
  bool islands = false;
  /// Cohorts generated per run. Solves cycle through them, and the
  /// end-to-end metrics average per-cohort medians, so a run describes
  /// the cohort distribution rather than one draw of it.
  std::uint32_t cohorts = 6;
};

RegionSpec region_spec(std::string_view name, bool smoke) {
  RegionSpec spec;
  spec.name = name;
  spec.ga.min_size = 2;
  spec.ga.max_size = 6;
  if (name == "region_mc_sync") {
    spec.cohort.snp_count = 60;
    spec.cohort.affected_count = 300;
    spec.cohort.unaffected_count = 300;
    spec.cohort.unknown_count = 0;
    spec.cohort.active_snp_count = 4;
    spec.evaluator.fitness_statistic = stats::FitnessStatistic::T3;
    spec.evaluator.clump.monte_carlo_trials = 1200;
    spec.evaluator.clump.monte_carlo_workers = 1;
    spec.ga.population_size = 60;
    spec.ga.min_subpopulation = 6;
    spec.ga.crossovers_per_generation = 8;
    spec.ga.mutations_per_generation = 12;
    spec.ga.random_immigrant_stagnation = 5;
    spec.ga.max_evaluations = smoke ? 80 : 240;
    // T3's best single-haplotype table varies more between cohorts than
    // T1's full table does, so this workload averages over more of them.
    spec.cohorts = 12;
  } else {
    // The paper's §5 cohort and GA configuration.
    spec.cohort.snp_count = 51;
    spec.cohort.affected_count = 53;
    spec.cohort.unaffected_count = 53;
    spec.cohort.unknown_count = 70;
    spec.cohort.active_snp_count = 3;
    spec.ga.population_size = 150;
    spec.islands = name == "region_t1_async";
    spec.ga.max_evaluations = spec.islands ? (smoke ? 600 : 6'000)
                                           : (smoke ? 300 : 3'000);
  }
  spec.ga.max_generations = 100'000;
  spec.ga.stagnation_generations = spec.ga.max_generations;
  if (smoke) spec.cohorts = 2;
  return spec;
}

class RegionWorkload final : public Workload {
 public:
  RegionWorkload(RegionSpec spec, const WorkloadOptions& options)
      : spec_(std::move(spec)) {
    for (std::uint32_t i = 0; i < spec_.cohorts; ++i) {
      Rng rng(derive_seed(options.seed, 1, i));
      Input input;
      genomics::SyntheticDataset synthetic =
          genomics::generate_synthetic(spec_.cohort, rng);
      input.data = std::move(synthetic.dataset);
      input.planted = std::move(synthetic.truth.snps);
      input.ga_seed = derive_seed(options.seed, 2, i);
      input.path = files_.add(scratch_file(options, spec_.name, i));
      genomics::write_packed_store(input.path, input.data);
      inputs_.push_back(std::move(input));
    }
  }

  std::uint32_t input_count() const override { return spec_.cohorts; }

  SolveRecord solve(std::uint32_t index, Trace* trace) override {
    const Input& input = inputs_.at(index);
    SolveRecord record;
    record.input = index;

    // Set-up: what a user pays before the search starts — load the
    // region from its packed store, build evaluator, backend, engine.
    const Usage setup_start = Usage::now();
    ScopedSpan setup_span(trace, "setup");
    Usage open_usage;
    std::optional<genomics::Dataset> data;
    {
      ScopedSpan span(trace, "genomics.open");
      const Usage before = Usage::now();
      data.emplace(genomics::Dataset::open(input.path));
      open_usage = Usage::now() - before;
    }
    const stats::HaplotypeEvaluator evaluator(*data, spec_.evaluator);
    ga::GaConfig ga = spec_.ga;
    ga.seed = input.ga_seed;

    Outcome outcome;
    outcome.input = index;
    std::vector<std::pair<std::string, double>> layers;
    if (spec_.islands) {
      ga::IslandConfig config;
      config.ga = ga;
      config.lanes = kWorkers;
      ga::IslandEngine engine(evaluator, config);
      if (trace != nullptr) {
        engine.set_event_callback([trace](const ga::IslandEvent& event) {
          trace->instant("ga.island_event", trace->now_us(),
                         std::string("\"kind\":\"") + ga::to_string(event.kind) +
                             "\",\"island\":" + std::to_string(event.island) +
                             ",\"step\":" + std::to_string(event.step));
        });
      }
      record.setup_s = (Usage::now() - setup_start).wall_s;
      setup_span.close();

      Usage usage;
      ga::IslandRunResult result;
      {
        ScopedSpan span(trace, "solve");
        const Usage before = Usage::now();
        {
          ScopedSpan run_span(trace, "ga.run");
          result = engine.run();
        }
        usage = Usage::now() - before;
      }
      record.wall_s = usage.wall_s;
      record.cpu_s = usage.cpu_s;
      record.evaluations = result.evaluations;
      record.failed =
          evaluator.failed_evaluation_count() + result.failed_offspring;
      collect_bests(result.best_by_size, outcome);
      if (trace != nullptr) {
        record.span_coverage =
            ratio(trace->total_seconds("ga.run"), usage.wall_s);
        const stats::EvaluationStreamStats& stream = result.stream_stats;
        const stats::EvaluationServiceStats& service = stream.service;
        const double stage = stage_total(evaluator.stage_timings());
        const double lanes = static_cast<double>(config.lanes);
        layers = {
            {"ga.self_s", usage.wall_s - service.batch_seconds / lanes},
            {"ga.island_steps", static_cast<double>(result.total_steps)},
            {"ga.migrations", static_cast<double>(result.migrations_sent)},
            {"stats.service_self_s", service.batch_seconds - stage},
            {"stats.cache_hit_rate",
             ratio(service.cache_hits, service.candidates)},
            {"stats.dup_rate", ratio(service.duplicates, service.candidates)},
            {"stats.stream_coalesce_width",
             ratio(service.candidates, stream.dispatch_rounds)},
            {"stats.stream_inflight_merge_rate",
             ratio(stream.inflight_merges, stream.submitted)},
            {"stats.lane_utilization",
             ratio(service.batch_seconds, lanes * usage.wall_s)},
            {"parallel.pool_utilization",
             ratio(stage, lanes * usage.wall_s)},
        };
      }
    } else {
      stats::BackendOptions options;
      options.workers = kWorkers;
      std::shared_ptr<stats::EvaluationBackend> backend =
          stats::make_thread_pool_backend(evaluator, options);
      std::shared_ptr<TracedBackend> traced;
      if (trace != nullptr) {
        traced = std::make_shared<TracedBackend>(std::move(backend), *trace);
        backend = traced;
      }
      ga::GaEngine engine(evaluator, ga, backend);
      double generation_start_us = 0.0;
      if (trace != nullptr) {
        engine.set_generation_callback(
            [trace, &generation_start_us](const ga::GenerationInfo& info) {
              const double now = trace->now_us();
              trace->span("ga.generation", generation_start_us, now,
                          "\"generation\":" + std::to_string(info.generation));
              generation_start_us = now;
            });
      }
      record.setup_s = (Usage::now() - setup_start).wall_s;
      setup_span.close();

      Usage usage;
      ga::GaResult result;
      {
        ScopedSpan span(trace, "solve");
        const Usage before = Usage::now();
        if (trace != nullptr) generation_start_us = trace->now_us();
        result = engine.run();
        usage = Usage::now() - before;
      }
      record.wall_s = usage.wall_s;
      record.cpu_s = usage.cpu_s;
      record.evaluations = result.evaluations;
      record.failed = evaluator.failed_evaluation_count();
      collect_bests(result.best_by_size, outcome);
      outcome.fingerprint += "evaluations=" +
                             std::to_string(result.evaluations) +
                             " generations=" +
                             std::to_string(result.generations);
      if (trace != nullptr) {
        const double generations = trace->total_seconds("ga.generation");
        record.span_coverage = ratio(generations, usage.wall_s);
        const stats::EvaluationServiceStats& service = result.eval_stats;
        const double backend_s = trace->total_seconds("parallel.evaluate_batch");
        const std::vector<double> generation_ms =
            trace->durations_ms("ga.generation");
        const std::vector<double> batch_ms =
            trace->durations_ms("parallel.evaluate_batch");
        layers = {
            {"ga.self_s", generations - service.batch_seconds},
            {"ga.generation_ms.p50", quantile(generation_ms, 0.50)},
            {"ga.generation_ms.p95", quantile(generation_ms, 0.95)},
            {"ga.generations", static_cast<double>(result.generations)},
            {"stats.service_self_s", service.batch_seconds - backend_s},
            {"stats.cache_hit_rate",
             ratio(service.cache_hits, service.candidates)},
            {"stats.dup_rate", ratio(service.duplicates, service.candidates)},
            {"parallel.backend_s", backend_s},
            {"parallel.batch_ms.p50", quantile(batch_ms, 0.50)},
            {"parallel.batch_ms.p95", quantile(batch_ms, 0.95)},
            {"parallel.batch_size_mean", traced->mean_batch_size()},
            {"parallel.pool_utilization",
             ratio(stage_total(evaluator.stage_timings()),
                   static_cast<double>(kWorkers) * backend_s)},
        };
      }
    }

    record.best_fitness_sum = 0.0;
    for (const auto& best : outcome.bests) {
      record.best_fitness_sum += best.second;
    }
    if (trace != nullptr) {
      const stats::StageTimings stages = evaluator.stage_timings();
      const double evaluations = static_cast<double>(record.evaluations);
      const double file_bytes =
          static_cast<double>(std::filesystem::file_size(input.path));
      layers.insert(
          layers.end(),
          {{"ga.evaluations", evaluations},
           {"ga.budget_overshoot",
            ratio(evaluations, static_cast<double>(ga.max_evaluations)) - 1.0},
           {"stats.pattern_build_cpu_s", stages.pattern_build_seconds},
           {"stats.em_cpu_s", stages.em_seconds},
           {"stats.clump_cpu_s", stages.clump_seconds},
           {"stats.cost_per_eval_ms",
            ratio(stage_total(stages), evaluations) * 1e3},
           {"stats.em_lanes_per_batch",
            ratio(evaluator.em_batch_lanes(), evaluator.em_batch_runs())},
           {"stats.mc_replicates",
            static_cast<double>(evaluator.mc_replicates_run())},
           {"stats.failed_evaluations",
            static_cast<double>(evaluator.failed_evaluation_count())},
           {"parallel.cpu_per_wall", ratio(record.cpu_s, record.wall_s)},
           {"genomics.store_open_s", open_usage.wall_s},
           {"genomics.store_open_gbps",
            ratio(file_bytes, open_usage.wall_s) * 1e-9},
           {"genomics.minor_faults",
            static_cast<double>(open_usage.minor_faults)},
           {"genomics.major_faults",
            static_cast<double>(open_usage.major_faults)},
           {"analysis.signal_recall", planted_recall(input, outcome)}});
      record.layers = std::move(layers);
    }
    outcomes_.push_back(std::move(outcome));
    return record;
  }

  void check() override {
    // Sync engines are deterministic per (cohort, seed): every solve of
    // an input, traced or not, must reproduce the first one bit for bit.
    std::map<std::uint32_t, std::string> first;
    for (const Outcome& outcome : outcomes_) {
      if (spec_.islands) continue;
      const auto [it, inserted] =
          first.emplace(outcome.input, outcome.fingerprint);
      if (!inserted && it->second != outcome.fingerprint) {
        throw GateFailure(std::string(spec_.name) + ": input " +
                          std::to_string(outcome.input) +
                          " solved differently across reps:\n  " + it->second +
                          "\n  " + outcome.fingerprint);
      }
    }
    // Every reported best individual, re-scored by the full pipeline on
    // a fresh evaluator over the in-memory cohort (not the store the
    // solve read), must carry exactly the fitness the search reported.
    std::map<std::pair<std::uint32_t, std::string>, bool> rescored;
    for (const Outcome& outcome : outcomes_) {
      const Input& input = inputs_.at(outcome.input);
      const stats::HaplotypeEvaluator fresh(input.data, spec_.evaluator);
      for (const auto& [snps, fitness] : outcome.bests) {
        if (!rescored.emplace(std::pair(outcome.input, snps_text(snps)), true)
                 .second) {
          continue;
        }
        const double again = fresh.evaluate_full(snps).fitness;
        if (std::bit_cast<std::uint64_t>(again) !=
            std::bit_cast<std::uint64_t>(fitness)) {
          throw GateFailure(std::string(spec_.name) + ": best " +
                            snps_text(snps) + " reported fitness " +
                            bits(fitness) + " but re-scores to " +
                            bits(again));
        }
      }
    }
  }

  std::string describe_json() const override {
    const auto& c = spec_.cohort;
    const auto& g = spec_.ga;
    return "{\"engine\":\"" +
           std::string(spec_.islands ? "IslandEngine" : "GaEngine") +
           "\",\"cohort\":{\"snps\":" + std::to_string(c.snp_count) +
           ",\"affected\":" + std::to_string(c.affected_count) +
           ",\"unaffected\":" + std::to_string(c.unaffected_count) +
           ",\"unknown\":" + std::to_string(c.unknown_count) +
           ",\"planted\":" + std::to_string(c.active_snp_count) +
           "},\"cohorts_per_run\":" + std::to_string(spec_.cohorts) +
           ",\"ga\":{\"sizes\":[" + std::to_string(g.min_size) + "," +
           std::to_string(g.max_size) +
           "],\"population\":" + std::to_string(g.population_size) +
           ",\"max_evaluations\":" + std::to_string(g.max_evaluations) +
           ",\"stagnation\":\"off\"},\"fitness\":\"" +
           (spec_.evaluator.fitness_statistic == stats::FitnessStatistic::T3
                ? "T3"
                : "T1") +
           "\",\"monte_carlo_trials\":" +
           std::to_string(spec_.evaluator.clump.monte_carlo_trials) +
           ",\"workers\":" + std::to_string(kWorkers) + "}";
  }

 private:
  struct Input {
    genomics::Dataset data;
    std::vector<genomics::SnpIndex> planted;
    std::uint64_t ga_seed = 0;
    std::string path;
  };

  /// What the gates need from one solve.
  struct Outcome {
    std::uint32_t input = 0;
    std::vector<std::pair<std::vector<genomics::SnpIndex>, double>> bests;
    std::string fingerprint;
  };

  static double stage_total(const stats::StageTimings& t) {
    return t.pattern_build_seconds + t.em_seconds + t.clump_seconds;
  }

  static void collect_bests(const std::vector<ga::HaplotypeIndividual>& bests,
                            Outcome& outcome) {
    for (const ga::HaplotypeIndividual& best : bests) {
      outcome.bests.emplace_back(best.snps(), best.fitness());
      outcome.fingerprint +=
          snps_text(best.snps()) + "=" + bits(best.fitness()) + " ";
    }
  }

  /// Share of the planted SNPs inside the best individual of the
  /// planted size.
  double planted_recall(const Input& input, const Outcome& outcome) const {
    for (const auto& [snps, fitness] : outcome.bests) {
      if (snps.size() != input.planted.size()) continue;
      const auto found = std::count_if(
          input.planted.begin(), input.planted.end(),
          [&](genomics::SnpIndex snp) {
            return std::find(snps.begin(), snps.end(), snp) != snps.end();
          });
      return ratio(static_cast<double>(found),
                   static_cast<double>(input.planted.size()));
    }
    return 0.0;
  }

  RegionSpec spec_;
  ScratchFiles files_;
  std::vector<Input> inputs_;
  std::vector<Outcome> outcomes_;
};

// ---------------------------------------------------------------------
// Genome scan: packed store → LD prefilter → top windows → window GAs.

class GenomeScanWorkload final : public Workload {
 public:
  explicit GenomeScanWorkload(const WorkloadOptions& options) {
    data_.cohort.snp_count = kWindowSnps;  // signal chunk = one window
    data_.cohort.affected_count = 150;
    data_.cohort.unaffected_count = 150;
    data_.cohort.unknown_count = 0;
    data_.cohort.active_snp_count = 3;
    data_.total_snps = options.smoke ? 20'000 : 200'000;
    data_.chunk_snps = 4096;
    scan_.ga.min_size = 2;
    scan_.ga.max_size = 4;
    scan_.ga.population_size = 30;
    scan_.ga.min_subpopulation = 5;
    scan_.ga.crossovers_per_generation = 6;
    scan_.ga.mutations_per_generation = 10;
    scan_.ga.max_generations = options.smoke ? 8 : 40;
    scan_.ga.stagnation_generations = scan_.ga.max_generations + 1;
    scan_.ga.seed = derive_seed(options.seed, 2, 0);
    scan_.migrate_elites = 3;
    scan_.eval_workers = kWorkers;
    prefilter_.workers = kWorkers;

    Rng rng(derive_seed(options.seed, 1, 0));
    path_ = files_.add(scratch_file(options, "genome_scan", 0));
    planted_ = genomics::write_synthetic_store(path_, data_, rng).truth.snps;
    store_bytes_ = std::filesystem::file_size(path_);
  }

  std::uint32_t input_count() const override { return 1; }

  SolveRecord solve(std::uint32_t /*input*/, Trace* trace) override {
    SolveRecord record;
    Usage open_usage;
    std::optional<genomics::PackedGenotypeStore> store;
    {
      ScopedSpan setup(trace, "setup");
      ScopedSpan span(trace, "genomics.open");
      const Usage before = Usage::now();
      store.emplace(genomics::PackedGenotypeStore::open(path_));
      open_usage = Usage::now() - before;
    }
    record.setup_s = open_usage.wall_s;

    Usage usage;
    Usage prefilter_usage;
    Usage select_usage;
    Usage scan_usage;
    std::vector<analysis::WindowScore> scores;
    std::vector<ga::WindowSpec> selected;
    ga::WindowScanResult scan;
    {
      ScopedSpan span(trace, "solve");
      const Usage before = Usage::now();
      std::vector<ga::WindowSpec> windows;
      {
        ScopedSpan stage(trace, "ga.plan_windows");
        windows = ga::plan_windows(store->snp_count(), kWindowSnps,
                                   kStrideSnps);
      }
      {
        ScopedSpan stage(trace, "analysis.score_windows");
        const Usage stage_start = Usage::now();
        scores = analysis::score_windows(*store, windows, prefilter_);
        prefilter_usage = Usage::now() - stage_start;
      }
      {
        ScopedSpan stage(trace, "analysis.top_windows");
        const Usage stage_start = Usage::now();
        selected = analysis::top_windows(scores, kKeepWindows);
        select_usage = Usage::now() - stage_start;
      }
      {
        ScopedSpan stage(trace, "ga.run_window_scan");
        const Usage stage_start = Usage::now();
        scan = ga::run_window_scan(*store, store->panel(), store->statuses(),
                                   selected, scan_);
        scan_usage = Usage::now() - stage_start;
      }
      usage = Usage::now() - before;
    }
    record.wall_s = usage.wall_s;
    record.cpu_s = usage.cpu_s;
    record.evaluations = scan.evaluations;
    for (const ga::WindowResult& window : scan.windows) {
      record.best_fitness_sum += window.best_fitness;
    }

    if (trace != nullptr) {
      record.span_coverage =
          ratio(trace->total_seconds("ga.plan_windows") +
                    trace->total_seconds("analysis.score_windows") +
                    trace->total_seconds("analysis.top_windows") +
                    trace->total_seconds("ga.run_window_scan"),
                usage.wall_s);
      std::uint64_t pairs = 0;
      for (const analysis::WindowScore& score : scores) pairs += score.pairs;
      // Nine fused AND-popcounts of words_per_snp words per pair
      // (ld_prefilter.cpp, pair_ld_from_planes): a computed count.
      const double words = static_cast<double>(store->words_per_snp());
      const double achieved_words_per_s =
          ratio(static_cast<double>(pairs) * 9.0 * words,
                prefilter_usage.wall_s);
      if (peak_words_per_s_ == 0.0) {
        peak_words_per_s_ = popcount_peak_words_per_s(store->words_per_snp());
      }
      std::uint32_t generations = 0;
      for (const ga::WindowResult& window : scan.windows) {
        generations += window.generations;
      }
      record.layers = {
          {"ga.generations", static_cast<double>(generations)},
          {"ga.evaluations", static_cast<double>(scan.evaluations)},
          {"ga.scan_s", scan_usage.wall_s},
          {"parallel.cpu_per_wall", usage.cpu_per_wall()},
          {"genomics.store_open_s", open_usage.wall_s},
          {"genomics.store_open_gbps",
           ratio(static_cast<double>(store_bytes_), open_usage.wall_s) * 1e-9},
          {"genomics.minor_faults",
           static_cast<double>(open_usage.minor_faults)},
          {"genomics.major_faults",
           static_cast<double>(open_usage.major_faults)},
          {"analysis.prefilter_s", prefilter_usage.wall_s},
          {"analysis.prefilter_mpairs_per_s",
           ratio(static_cast<double>(pairs), prefilter_usage.wall_s) * 1e-6},
          {"analysis.prefilter_cpu_per_wall", prefilter_usage.cpu_per_wall()},
          {"analysis.select_s", select_usage.wall_s},
          {"analysis.prefilter_kernel_frac",
           ratio(achieved_words_per_s, peak_words_per_s_)},
          {"analysis.signal_recall", signal_selected(selected) ? 1.0 : 0.0},
      };
    }
    outcomes_.push_back({std::move(selected), std::move(scan)});
    return record;
  }

  void check() override {
    if (outcomes_.empty()) return;
    const Outcome& first = outcomes_.front();
    const std::string expected = fingerprint(first.scan);
    for (const Outcome& outcome : outcomes_) {
      if (windows_text(outcome.selected) != windows_text(first.selected)) {
        throw GateFailure("genome_scan: selected windows differ across reps: " +
                          windows_text(first.selected) + " vs " +
                          windows_text(outcome.selected));
      }
      if (fingerprint(outcome.scan) != expected) {
        throw GateFailure("genome_scan: scan result differs across reps");
      }
    }

    const genomics::PackedGenotypeStore store =
        genomics::PackedGenotypeStore::open(path_);
    // The mmap'd scan must equal the same scan over an in-memory copy
    // of the whole panel.
    const genomics::PackedGenotypeMatrix memory =
        store.slice_loci(0, store.snp_count());
    const ga::WindowScanResult in_memory = ga::run_window_scan(
        memory, store.panel(), store.statuses(), first.selected, scan_);
    if (fingerprint(in_memory) != expected) {
      throw GateFailure(
          "genome_scan: mmap'd scan differs from the in-memory scan:\n  " +
          expected + "\n  " + fingerprint(in_memory));
    }
    // Each window's best, re-scored on a fresh evaluator over that
    // window, must carry exactly the reported fitness.
    for (const ga::WindowResult& window : first.scan.windows) {
      if (window.best_snps.empty()) continue;
      const genomics::Dataset data = genomics::materialize_window(
          store, store.panel(), store.statuses(), window.window.begin,
          window.window.count);
      const stats::HaplotypeEvaluator fresh(data, scan_.evaluator);
      std::vector<genomics::SnpIndex> local = window.best_snps;
      for (genomics::SnpIndex& snp : local) snp -= window.window.begin;
      const double again = fresh.evaluate_full(local).fitness;
      if (std::bit_cast<std::uint64_t>(again) !=
          std::bit_cast<std::uint64_t>(window.best_fitness)) {
        throw GateFailure("genome_scan: window best " +
                          snps_text(window.best_snps) + " reported " +
                          bits(window.best_fitness) + " but re-scores to " +
                          bits(again));
      }
    }
  }

  std::string describe_json() const override {
    return "{\"panel_snps\":" + std::to_string(data_.total_snps) +
           ",\"individuals\":" +
           std::to_string(data_.cohort.affected_count +
                          data_.cohort.unaffected_count) +
           ",\"store_bytes\":" + std::to_string(store_bytes_) +
           ",\"store_page_cache\":\"warm: written by this run before "
           "timing\",\"window_snps\":" +
           std::to_string(kWindowSnps) +
           ",\"stride_snps\":" + std::to_string(kStrideSnps) +
           ",\"keep_windows\":" + std::to_string(kKeepWindows) +
           ",\"prefilter_workers\":" + std::to_string(prefilter_.workers) +
           ",\"scan\":{\"engine\":\"sync\",\"concurrent_windows\":1"
           ",\"eval_workers\":" +
           std::to_string(scan_.eval_workers) + ",\"sizes\":[" +
           std::to_string(scan_.ga.min_size) + "," +
           std::to_string(scan_.ga.max_size) +
           "],\"population\":" + std::to_string(scan_.ga.population_size) +
           ",\"max_generations\":" + std::to_string(scan_.ga.max_generations) +
           ",\"stagnation\":\"off\"},\"planted\":" + snps_text(planted_) +
           ",\"prefilter_kernel_frac\":\"computed: pairs x 9 x words / "
           "measured combine_planes_count peak\"}";
  }

 private:
  static constexpr std::uint32_t kWindowSnps = 64;
  static constexpr std::uint32_t kStrideSnps = 48;
  static constexpr std::uint32_t kKeepWindows = 4;

  struct Outcome {
    std::vector<ga::WindowSpec> selected;
    ga::WindowScanResult scan;
  };

  static std::string windows_text(std::span<const ga::WindowSpec> windows) {
    std::string out;
    for (const ga::WindowSpec& w : windows) {
      out += '[';
      out += std::to_string(w.begin) + "+" + std::to_string(w.count) + ")";
    }
    return out;
  }

  static std::string fingerprint(const ga::WindowScanResult& scan) {
    std::string out = snps_text(scan.best_snps) + "=" +
                      bits(scan.best_fitness) +
                      " evaluations=" + std::to_string(scan.evaluations);
    for (const ga::WindowResult& w : scan.windows) {
      out += ' ';
      out += std::to_string(w.window.begin) + ":" + snps_text(w.best_snps) +
             "=" + bits(w.best_fitness) + "/" + std::to_string(w.generations) +
             "/" + std::to_string(w.evaluations);
    }
    return out;
  }

  bool signal_selected(std::span<const ga::WindowSpec> selected) const {
    return std::any_of(selected.begin(), selected.end(),
                       [&](const ga::WindowSpec& w) {
                         return !planted_.empty() &&
                                std::all_of(planted_.begin(), planted_.end(),
                                            [&](genomics::SnpIndex s) {
                                              return s >= w.begin &&
                                                     s < w.begin + w.count;
                                            });
                       });
  }

  genomics::SyntheticStoreConfig data_;
  ga::WindowScanConfig scan_;
  analysis::LdPrefilterConfig prefilter_;
  ScratchFiles files_;
  std::string path_;
  std::vector<genomics::SnpIndex> planted_;
  std::uintmax_t store_bytes_ = 0;
  double peak_words_per_s_ = 0.0;
  std::vector<Outcome> outcomes_;
};

}  // namespace

std::span<const std::string_view> workload_names() { return kWorkloadNames; }

std::span<const std::pair<std::string_view, std::string_view>>
per_layer_metric_names() {
  return kPerLayer;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadOptions& options) {
  if (name == "genome_scan") {
    return std::make_unique<GenomeScanWorkload>(options);
  }
  if (std::find(kWorkloadNames.begin(), kWorkloadNames.end(), name) ==
      kWorkloadNames.end()) {
    throw ConfigError("unknown workload '" + std::string(name) + "'");
  }
  return std::make_unique<RegionWorkload>(region_spec(name, options.smoke),
                                          options);
}

}  // namespace ldga::benchmark

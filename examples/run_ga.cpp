// Command-line driver: run the parallel adaptive GA on a dataset file
// (the paper's individuals-table format) or on a freshly simulated
// cohort. This is the binary a biologist would actually use.
//
//   run_ga --dataset cohort.txt --max-size 6 --runs 3 --backend farm
//   run_ga --dataset panel.pgs        (packed genotype store, mmap'd)
//   run_ga --ped study.ped --map study.map --qc
//   run_ga --simulate --snps 51 --active 3 --seed 7 --save cohort.txt
//
// Flags (defaults in brackets):
//   --dataset PATH      load a dataset instead of simulating; the format
//                       is sniffed (packed store / .ped linkage / native
//                       text) via Dataset::open
//   --ped P --map M     load a linkage-format dataset with an explicit
//                       map path (Dataset::open assumes the sibling .map)
//   --qc                run marker QC (MAF/missingness/HWE) first
//   --simulate          generate a synthetic cohort [on unless --dataset]
//   --snps N            simulated panel size [51]
//   --active K          planted risk-haplotype size [3]
//   --save PATH         save the simulated cohort
//   --runs R            independent GA runs [1]
//   --min-size/--max-size   subpopulation size range [2/6]
//   --population N      total population size [150]
//   --stagnation G      termination stagnation [100]
//   --immigrants G      random-immigrant stagnation [20]
//   --engine sync|async selection model [sync]: sync is the paper's
//                       generational engine, async runs each size class
//                       as a steady-state island over evaluation lanes
//                       (--workers then sets the lane count)
//   --backend serial|pool|farm   evaluation backend [pool; sync only]:
//                       farm is the paper's §4.5 master/slave farm,
//                       slave threads exchanging packed messages
//   --workers N         scoring threads, the caller among them (farm:
//                       slaves) [hardware]
//   --stat t1|t2|t3|t4|lrt       fitness statistic [t1]
//   --seed S            base seed [1]
//   --trace             write telemetry CSV to stderr: one row per
//                       generation (sync, ga::TelemetryCsvWriter) or per
//                       island event (async, ga::IslandEventCsvWriter)
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "ga/engine.hpp"
#include "ga/island_engine.hpp"
#include "ga/telemetry_writer.hpp"
#include "genomics/dataset_io.hpp"
#include "genomics/linkage_format.hpp"
#include "genomics/qc.hpp"
#include "genomics/synthetic.hpp"
#include "stats/evaluation_backend.hpp"
#include "stats/evaluator.hpp"
#include "stats/permutation.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

std::shared_ptr<ldga::stats::EvaluationBackend> make_backend(
    const std::string& name,
    const ldga::stats::HaplotypeEvaluator& evaluator,
    std::uint32_t workers) {
  ldga::stats::BackendOptions options;
  options.workers = workers;
  if (name == "serial") {
    return ldga::stats::make_serial_backend(evaluator, options);
  }
  if (name == "pool") {
    return ldga::stats::make_thread_pool_backend(evaluator, options);
  }
  if (name == "farm") {
    return ldga::stats::make_farm_backend(evaluator, options);
  }
  throw ldga::ConfigError("--backend must be serial|pool|farm, got '" +
                          name + "'");
}

ldga::stats::FitnessStatistic parse_statistic(const std::string& name) {
  using ldga::stats::FitnessStatistic;
  if (name == "t1") return FitnessStatistic::T1;
  if (name == "t2") return FitnessStatistic::T2;
  if (name == "t3") return FitnessStatistic::T3;
  if (name == "t4") return FitnessStatistic::T4;
  if (name == "lrt") return FitnessStatistic::Lrt;
  throw ldga::ConfigError("--stat must be t1|t2|t3|t4|lrt, got '" + name +
                          "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldga;
  try {
    const CliArgs args(argc, argv);

    // --- dataset ---------------------------------------------------
    genomics::Dataset dataset;
    std::vector<genomics::SnpIndex> truth;
    if (args.has("dataset")) {
      // Content-dispatching open: packed genotype store, linkage .ped,
      // or the native individuals-table text all load through here.
      dataset = genomics::Dataset::open(args.get("dataset", ""));
      std::printf("loaded %u individuals x %u SNPs\n",
                  dataset.individual_count(), dataset.snp_count());
    } else if (args.has("ped") || args.has("map")) {
      dataset = genomics::load_linkage(args.get("ped", ""),
                                       args.get("map", ""));
      std::printf("loaded %u individuals x %u SNPs (linkage format)\n",
                  dataset.individual_count(), dataset.snp_count());
    } else {
      args.has("simulate");  // optional, implied
      genomics::SyntheticConfig config;
      config.snp_count = args.get_count("snps", 51);
      config.active_snp_count = args.get_count("active", 3);
      Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)) ^
              0x5eedULL);
      auto synthetic = genomics::generate_synthetic(config, rng);
      truth = synthetic.truth.snps;
      dataset = std::move(synthetic.dataset);
      std::printf("simulated %u individuals x %u SNPs; planted (1-based):",
                  dataset.individual_count(), dataset.snp_count());
      for (const auto snp : truth) std::printf(" %u", snp + 1);
      std::printf("\n");
      if (args.has("save")) {
        const std::string path = args.get("save", "");
        genomics::save_dataset(path, dataset);
        std::printf("saved cohort to %s\n", path.c_str());
      }
    }

    // --- optional marker QC ---------------------------------------------
    if (args.get_bool("qc")) {
      const auto report = genomics::run_marker_qc(dataset);
      std::printf("QC: kept %zu markers (dropped %u MAF, %u missing, "
                  "%u HWE)\n",
                  report.kept.size(), report.dropped_maf,
                  report.dropped_missing, report.dropped_hwe);
      if (report.kept.size() < dataset.snp_count()) {
        dataset = genomics::subset_markers(dataset, report.kept);
      }
    }

    // --- evaluator ---------------------------------------------------
    stats::EvaluatorConfig eval_config;
    eval_config.fitness_statistic =
        parse_statistic(args.get("stat", "t1"));
    const stats::HaplotypeEvaluator evaluator(dataset, eval_config);

    // --- GA config -----------------------------------------------------
    ga::GaConfig config;
    config.min_size = args.get_count("min-size", 2);
    config.max_size = args.get_count("max-size", 6);
    config.population_size = args.get_count("population", 150);
    config.stagnation_generations = args.get_count("stagnation", 100);
    config.random_immigrant_stagnation = args.get_count("immigrants", 20);
    const std::string engine_name = args.get("engine", "sync");
    if (engine_name != "sync" && engine_name != "async") {
      throw ConfigError("--engine must be sync|async, got '" + engine_name +
                        "'");
    }
    const auto workers = args.get_count("workers", 0);
    // One backend for all runs: pool threads / farm slaves spawn once
    // and the evaluator's cache is shared across the whole series. The
    // async engine owns its evaluation lanes instead.
    std::shared_ptr<stats::EvaluationBackend> backend;
    if (engine_name == "sync") {
      backend = make_backend(args.get("backend", "pool"), evaluator,
                             workers);
    }
    const bool trace = args.get_bool("trace");
    const auto runs = args.get_count("runs", 1);
    const auto base_seed =
        static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto permutations = args.get_count("permutations", 0);

    for (const auto& unknown : args.unused()) {
      std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                   unknown.c_str());
    }

    // --- runs ------------------------------------------------------------
    for (std::uint32_t run = 0; run < runs; ++run) {
      config.seed = base_seed + run;
      std::vector<ga::HaplotypeIndividual> best_by_size;
      if (engine_name == "async") {
        ga::IslandConfig island_config;
        island_config.ga = config;
        if (workers > 0) island_config.lanes = workers;
        ga::IslandEngine engine(evaluator, island_config);
        ga::IslandEventCsvWriter writer(std::cerr);
        if (trace) engine.set_event_callback(writer.callback());
        const ga::IslandRunResult result = engine.run();
        std::printf("\nrun %u: %llu island steps, %llu evaluations, "
                    "%u immigrant waves%s\n",
                    run + 1,
                    static_cast<unsigned long long>(result.total_steps),
                    static_cast<unsigned long long>(result.evaluations),
                    result.immigrant_events,
                    result.terminated_by_stagnation ? " (stagnation stop)"
                                                    : "");
        best_by_size = result.best_by_size;
      } else {
        ga::GaEngine engine(evaluator, config, backend);
        ga::TelemetryCsvWriter writer(std::cerr);
        if (trace) engine.set_generation_callback(writer.callback());
        const ga::GaResult result = engine.run();
        std::printf("\nrun %u: %u generations, %llu evaluations, "
                    "%u immigrant waves%s\n",
                    run + 1, result.generations,
                    static_cast<unsigned long long>(result.evaluations),
                    result.immigrant_events,
                    result.terminated_by_stagnation ? " (stagnation stop)"
                                                    : "");
        best_by_size = result.best_by_size;
      }
      std::printf("%-6s %-30s %s\n", "size", "best haplotype (1-based)",
                  "fitness");
      for (const auto& best : best_by_size) {
        std::printf("%-6u %-30s %.3f", best.size(), best.to_string().c_str(),
                    best.fitness());
        if (permutations > 0) {
          // Selection-aware significance: permute the disease labels and
          // rerun the whole pipeline (see stats/permutation.hpp).
          stats::PermutationConfig perm_config;
          perm_config.permutations = permutations;
          perm_config.seed = config.seed ^ 0x9e3779b9ULL;
          perm_config.workers = 0;
          const auto perm = stats::permutation_test(
              dataset, best.snps(), eval_config, perm_config);
          std::printf("   perm-p=%.4f", perm.p_value);
        }
        std::printf("\n");
      }
    }
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

#include "stats/permutation.hpp"

#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace ldga::stats {

using genomics::Dataset;
using genomics::SnpIndex;
using genomics::Status;

void PermutationConfig::validate() const {
  if (permutations == 0) {
    throw ConfigError("PermutationConfig: permutations must be >= 1");
  }
}

namespace {

/// Dataset with the same panel/genotypes but permuted known labels.
Dataset with_permuted_labels(const Dataset& dataset, Rng& rng) {
  std::vector<Status> statuses = dataset.statuses();
  std::vector<std::uint32_t> known;
  for (std::uint32_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i] != Status::Unknown) known.push_back(i);
  }
  // Collect the known labels, shuffle, reassign.
  std::vector<Status> labels;
  labels.reserve(known.size());
  for (const auto i : known) labels.push_back(statuses[i]);
  rng.shuffle(std::span<Status>(labels));
  for (std::size_t j = 0; j < known.size(); ++j) {
    statuses[known[j]] = labels[j];
  }
  return Dataset(dataset.panel(), dataset.genotypes(), std::move(statuses));
}

}  // namespace

PermutationResult permutation_test(const Dataset& dataset,
                                   std::span<const SnpIndex> snps,
                                   const EvaluatorConfig& evaluator_config,
                                   const PermutationConfig& config) {
  config.validate();
  LDGA_EXPECTS(!snps.empty());

  // Every cohort is scored as the GA scores it, with fitness(): only
  // the EM runs the statistic reads (the two group runs under T1–T4),
  // where evaluate_full() would also run the pooled EM.
  PermutationResult result;
  {
    const HaplotypeEvaluator evaluator(dataset, evaluator_config);
    result.observed = evaluator.fitness(snps);
  }

  // Pre-draw the permuted datasets from one master stream so results do
  // not depend on the worker count.
  Rng master(config.seed);
  std::vector<Dataset> permuted;
  permuted.reserve(config.permutations);
  for (std::uint32_t p = 0; p < config.permutations; ++p) {
    permuted.push_back(with_permuted_labels(dataset, master));
  }

  std::vector<double> statistics(config.permutations);
  auto evaluate_one = [&](std::size_t p) {
    const HaplotypeEvaluator evaluator(permuted[p], evaluator_config);
    statistics[p] = evaluator.fitness(snps);
  };

  const auto pool = parallel::make_worker_pool(config.workers);
  parallel::parallel_for(pool.get(), 0, statistics.size(), evaluate_one);

  KahanSum sum;
  for (const double s : statistics) {
    if (s >= result.observed) ++result.ge_count;
    sum.add(s);
    result.permutation_max = std::max(result.permutation_max, s);
  }
  result.permutation_mean =
      sum.value() / static_cast<double>(config.permutations);
  result.p_value = (1.0 + result.ge_count) / (1.0 + config.permutations);
  return result;
}

}  // namespace ldga::stats

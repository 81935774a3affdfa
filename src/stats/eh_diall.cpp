#include "stats/eh_diall.hpp"

#include <algorithm>

#include "stats/em_kernel.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace ldga::stats {

using genomics::SnpIndex;
using genomics::Status;

ContingencyTable EhDiallResult::to_contingency_table() const {
  const std::size_t n_haplotypes = std::size_t{1} << locus_count;
  ContingencyTable table(2, static_cast<std::uint32_t>(n_haplotypes));
  for (std::size_t h = 0; h < n_haplotypes; ++h) {
    const auto code = static_cast<HaplotypeCode>(h);
    table.set(0, static_cast<std::uint32_t>(h),
              affected.count(code, affected_individuals));
    table.set(1, static_cast<std::uint32_t>(h),
              unaffected.count(code, unaffected_individuals));
  }
  return table;
}

EhDiall::EhDiall(const genomics::Dataset& dataset, EmConfig config)
    : config_(config) {
  config_.validate();
  affected_ = dataset.individuals_with(Status::Affected);
  unaffected_ = dataset.individuals_with(Status::Unaffected);
  if (affected_.empty() || unaffected_.empty()) {
    throw DataError(
        "EhDiall: dataset needs at least one affected and one unaffected "
        "individual");
  }
  // The per-group packed adapter: each group's bytes are packed once
  // into a column slice, identical bit for bit to what
  // GenotypeStore::slice would gather from the full packed matrix.
  packed_affected_ =
      genomics::PackedGenotypeMatrix(dataset.genotypes(), affected_);
  packed_unaffected_ =
      genomics::PackedGenotypeMatrix(dataset.genotypes(), unaffected_);
}

EhDiallResult EhDiall::analyze(std::span<const SnpIndex> snps) const {
  EvalScratch scratch;
  return analyze(snps, scratch);
}

EhDiallResult EhDiall::analyze(std::span<const SnpIndex> snps,
                               EvalScratch& scratch) const {
  EhDiallResult result;
  result.locus_count = static_cast<std::uint32_t>(snps.size());

  // Count the genotype patterns of each group, merge them into the
  // pooled table, and compile all three tables into phase programs.
  const Stopwatch build_watch;
  const GenotypePatternTable table_a = GenotypePatternTable::build_packed(
      packed_affected_, snps, config_.missing, scratch.dfs_rows);
  const GenotypePatternTable table_u = GenotypePatternTable::build_packed(
      packed_unaffected_, snps, config_.missing, scratch.dfs_rows);
  const EmProgram program_a = EmProgram::compile(table_a);
  const EmProgram program_u = EmProgram::compile(table_u);
  const EmProgram program_pooled =
      EmProgram::compile(GenotypePatternTable::merge(table_a, table_u));
  result.affected_individuals = table_a.total_individuals();
  result.unaffected_individuals = table_u.total_individuals();
  result.pattern_build_seconds = build_watch.elapsed_seconds();

  const Stopwatch em_watch;
  const EmSupportResult solution_a =
      run_em_program(program_a, config_, scratch.em);
  const EmSupportResult solution_u =
      run_em_program(program_u, config_, scratch.em);
  const EmSupportResult solution_pooled =
      run_em_program(program_pooled, config_, scratch.em);
  result.em_seconds = em_watch.elapsed_seconds();

  // Expand the support solutions and derive the LRT.
  result.affected = expand_em_result(program_a, solution_a);
  result.unaffected = expand_em_result(program_u, solution_u);
  result.pooled = expand_em_result(program_pooled, solution_pooled);
  const double lrt = 2.0 * (result.affected.log_likelihood +
                            result.unaffected.log_likelihood -
                            result.pooled.log_likelihood);
  result.lrt = std::max(lrt, 0.0);
  return result;
}

}  // namespace ldga::stats

#include "stats/eh_diall.hpp"

#include <algorithm>
#include <utility>

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

namespace {

/// Store rows of each association group, in store order. Unknown
/// individuals are dropped (as in the paper).
std::vector<std::uint32_t> rows_with(std::span<const Status> statuses,
                                     Status wanted) {
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i] == wanted) rows.push_back(i);
  }
  return rows;
}

}  // namespace

EhDiall::EhDiall(const genomics::Dataset& dataset, EmConfig config,
                 bool simd_kernels)
    : config_(config), simd_kernels_(simd_kernels) {
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

EhDiall::EhDiall(const genomics::GenotypeStore& store,
                 std::span<const Status> statuses, EmConfig config,
                 bool simd_kernels)
    : config_(config), simd_kernels_(simd_kernels) {
  config_.validate();
  LDGA_EXPECTS(statuses.size() == store.individual_count());
  affected_ = rows_with(statuses, Status::Affected);
  unaffected_ = rows_with(statuses, Status::Unaffected);
  if (affected_.empty() || unaffected_.empty()) {
    throw DataError(
        "EhDiall: store needs at least one affected and one unaffected "
        "individual");
  }
  packed_affected_ = store.slice(0, store.snp_count(), affected_);
  packed_unaffected_ = store.slice(0, store.snp_count(), unaffected_);
}

EhDiallResult EhDiall::analyze(std::span<const SnpIndex> snps) const {
  EvalScratch scratch;
  return analyze(snps, scratch);
}

EhDiallResult EhDiall::analyze(std::span<const SnpIndex> snps,
                               EvalScratch& scratch) const {
  const std::vector<SnpIndex> candidate(snps.begin(), snps.end());
  EhDiallResult result;
  std::string error;
  analyze_batch({&candidate, 1}, scratch, {&result, 1}, {&error, 1});
  if (!error.empty()) throw Error(error);
  return result;
}

void EhDiall::analyze_batch(std::span<const std::vector<SnpIndex>> snps,
                            EvalScratch& scratch,
                            std::span<EhDiallResult> results,
                            std::span<std::string> errors,
                            EhDiallBatchStats* stats) const {
  LDGA_EXPECTS(results.size() == snps.size() &&
               errors.size() == snps.size());

  // Phase A: per candidate, count the genotype patterns of each group,
  // merge them into the pooled table, and compile all three tables
  // into phase programs. Slots 0/1/2 = affected/unaffected/pooled.
  struct Pending {
    std::size_t index = 0;
    EmProgram programs[3];
    EmSupportResult solutions[3];
  };
  std::vector<Pending> pending;
  pending.reserve(snps.size());
  for (std::size_t i = 0; i < snps.size(); ++i) {
    try {
      Stopwatch watch;
      const GenotypePatternTable table_a = GenotypePatternTable::build_packed(
          packed_affected_, snps[i], config_.missing, scratch.dfs_rows);
      const GenotypePatternTable table_u = GenotypePatternTable::build_packed(
          packed_unaffected_, snps[i], config_.missing, scratch.dfs_rows);
      Pending p;
      p.index = i;
      p.programs[0] = EmProgram::compile(table_a);
      p.programs[1] = EmProgram::compile(table_u);
      p.programs[2] =
          EmProgram::compile(GenotypePatternTable::merge(table_a, table_u));
      EhDiallResult& result = results[i];
      result.locus_count = static_cast<std::uint32_t>(snps[i].size());
      result.affected_individuals = table_a.total_individuals();
      result.unaffected_individuals = table_u.total_individuals();
      result.pattern_build_seconds = watch.elapsed_seconds();
      pending.push_back(std::move(p));
    } catch (const std::exception& error) {
      errors[i] = error.what();
    }
  }

  // Phase B: solve every program. With the vector kernels, group the
  // programs by phase-program shape and run each group of >= 2 in SoA
  // lockstep; programs with no data never group (same-shape requires
  // data) and run solo, which handles them trivially. Without them,
  // every program runs solo on the scalar kernel.
  struct Job {
    const EmProgram* program;
    EmSupportResult* solution;
  };
  std::vector<Job> jobs;
  jobs.reserve(pending.size() * 3);
  for (Pending& p : pending) {
    for (std::size_t g = 0; g < 3; ++g) {
      jobs.push_back({&p.programs[g], &p.solutions[g]});
    }
  }
  Stopwatch em_watch;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto same_shape = [&](const std::vector<std::size_t>& group) {
      return em_programs_same_shape(*jobs[group.front()].program,
                                    *jobs[j].program);
    };
    const auto group =
        simd_kernels_ ? std::find_if(groups.begin(), groups.end(), same_shape)
                      : groups.end();
    if (group != groups.end()) {
      group->push_back(j);
    } else {
      groups.push_back({j});
    }
  }
  std::vector<const EmProgram*> programs;
  std::vector<EmSupportResult> solutions;
  for (const auto& group : groups) {
    if (group.size() >= 2) {
      programs.clear();
      for (const std::size_t j : group) {
        programs.push_back(jobs[j].program);
      }
      solutions.resize(group.size());
      run_em_program_batch(programs, config_, scratch.em_batch, solutions);
      for (std::size_t b = 0; b < group.size(); ++b) {
        *jobs[group[b]].solution = std::move(solutions[b]);
      }
      if (stats != nullptr) {
        ++stats->batch_runs;
        stats->batch_lanes += group.size();
      }
    } else {
      const Job& job = jobs[group.front()];
      *job.solution =
          run_em_program(*job.program, config_, scratch.em, simd_kernels_);
    }
  }
  // The lockstep runs interleave candidates, so per-candidate EM time
  // is attributed as an even share — a cost profile, not a clock.
  const double em_share =
      pending.empty() ? 0.0 : em_watch.elapsed_seconds() /
                                  static_cast<double>(pending.size());

  // Phase C: expand the support solutions and derive the LRT.
  for (const Pending& p : pending) {
    EhDiallResult& result = results[p.index];
    result.em_seconds = em_share;
    result.affected = expand_em_result(p.programs[0], p.solutions[0]);
    result.unaffected = expand_em_result(p.programs[1], p.solutions[1]);
    result.pooled = expand_em_result(p.programs[2], p.solutions[2]);
    const double lrt = 2.0 * (result.affected.log_likelihood +
                              result.unaffected.log_likelihood -
                              result.pooled.log_likelihood);
    result.lrt = std::max(lrt, 0.0);
  }
}

}  // namespace ldga::stats

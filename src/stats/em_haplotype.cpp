#include "stats/em_haplotype.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace ldga::stats {

using genomics::Genotype;
using genomics::SnpIndex;

void EmConfig::validate() const {
  if (tolerance <= 0.0) {
    throw ConfigError("EmConfig: tolerance must be positive");
  }
  if (max_iterations == 0) {
    throw ConfigError("EmConfig: max_iterations must be positive");
  }
}

namespace {

bool pattern_less(const GenotypePattern& a, const GenotypePattern& b) {
  if (a.hom_two_mask != b.hom_two_mask)
    return a.hom_two_mask < b.hom_two_mask;
  if (a.het_mask != b.het_mask) return a.het_mask < b.het_mask;
  return a.missing_mask < b.missing_mask;
}

}  // namespace

GenotypePatternTable GenotypePatternTable::from_patterns(
    std::uint32_t locus_count, double total, std::uint32_t excluded,
    std::vector<GenotypePattern> patterns) {
  LDGA_EXPECTS(locus_count >= 1 && locus_count <= kMaxEmLoci);
  LDGA_EXPECTS(
      std::is_sorted(patterns.begin(), patterns.end(), pattern_less));
  GenotypePatternTable table;
  table.locus_count_ = locus_count;
  table.total_ = total;
  table.excluded_ = excluded;
  table.patterns_ = std::move(patterns);
  return table;
}

GenotypePatternTable GenotypePatternTable::build_packed(
    const genomics::PackedGenotypeMatrix& group,
    std::span<const SnpIndex> snps, MissingPolicy missing) {
  std::vector<std::uint64_t> dfs_scratch;
  return build_packed(group, snps, missing, dfs_scratch);
}

GenotypePatternTable GenotypePatternTable::build_packed(
    const genomics::PackedGenotypeMatrix& group,
    std::span<const SnpIndex> snps, MissingPolicy missing,
    std::vector<std::uint64_t>& dfs_scratch) {
  LDGA_EXPECTS(!snps.empty());
  LDGA_EXPECTS(snps.size() <= kMaxEmLoci);

  GenotypePatternTable table;
  table.locus_count_ = static_cast<std::uint32_t>(snps.size());

  // The packed kernel already delivers distinct patterns with carrier
  // counts; no per-individual hashing round is needed.
  group.for_each_pattern_rows(
      snps,
      [&](std::uint32_t hom_two, std::uint32_t het,
          std::uint32_t missing_mask, std::uint32_t count,
          std::span<const std::uint64_t>) {
        if (missing_mask != 0 && missing == MissingPolicy::CompleteCase) {
          table.excluded_ += count;
          return;
        }
        GenotypePattern p;
        p.hom_two_mask = hom_two;
        p.het_mask = het;
        p.missing_mask = missing_mask;
        p.count = static_cast<double>(count);
        table.patterns_.push_back(p);
        table.total_ += static_cast<double>(count);
      },
      dfs_scratch);
  std::sort(table.patterns_.begin(), table.patterns_.end(), pattern_less);
  return table;
}

GenotypePatternTable GenotypePatternTable::merge(
    const GenotypePatternTable& a, const GenotypePatternTable& b) {
  LDGA_EXPECTS(a.locus_count_ == b.locus_count_);
  GenotypePatternTable out;
  out.locus_count_ = a.locus_count_;
  out.total_ = a.total_ + b.total_;
  out.excluded_ = a.excluded_ + b.excluded_;

  // Both inputs are already sorted by pattern_less (build_packed ends
  // on that sort), so a two-pointer merge yields the
  // sorted union directly — no hashing and no re-sort.
  out.patterns_.reserve(a.patterns_.size() + b.patterns_.size());
  auto ia = a.patterns_.begin();
  auto ib = b.patterns_.begin();
  const auto ea = a.patterns_.end();
  const auto eb = b.patterns_.end();
  while (ia != ea && ib != eb) {
    if (pattern_less(*ia, *ib)) {
      out.patterns_.push_back(*ia++);
    } else if (pattern_less(*ib, *ia)) {
      out.patterns_.push_back(*ib++);
    } else {
      GenotypePattern p = *ia++;
      p.count += ib++->count;
      out.patterns_.push_back(p);
    }
  }
  out.patterns_.insert(out.patterns_.end(), ia, ea);
  out.patterns_.insert(out.patterns_.end(), ib, eb);
  return out;
}

std::vector<double> equilibrium_allele_two_frequencies(
    const GenotypePatternTable& table) {
  const std::uint32_t k = table.locus_count();
  std::vector<double> freq_two(k, 0.0);
  std::vector<double> observed(k, 0.0);
  for (const auto& p : table.patterns()) {
    for (std::uint32_t j = 0; j < k; ++j) {
      const std::uint32_t bit = 1u << j;
      if (p.missing_mask & bit) continue;
      observed[j] += 2.0 * p.count;
      if (p.hom_two_mask & bit) {
        freq_two[j] += 2.0 * p.count;
      } else if (p.het_mask & bit) {
        freq_two[j] += p.count;
      }
    }
  }
  for (std::uint32_t j = 0; j < k; ++j) {
    double& f = freq_two[j];
    f = observed[j] > 0.0 ? f / observed[j] : 0.5;
    // Keep strictly inside (0,1) so no compatible pair starts at zero.
    f = std::clamp(f, 1e-6, 1.0 - 1e-6);
  }
  return freq_two;
}

void for_each_compatible_pair(
    const GenotypePattern& p,
    const std::function<void(HaplotypeCode, HaplotypeCode, double)>& visit) {
  const std::uint32_t het = p.het_mask;
  const std::uint32_t miss = p.missing_mask;

  if (miss == 0) {
    if (het == 0) {
      visit(p.hom_two_mask, p.hom_two_mask, 1.0);
      return;
    }
    // Fix the lowest heterozygous bit on chromosome 1 to enumerate each
    // unordered pair exactly once: 2^(h-1) resolutions.
    const std::uint32_t anchor = het & (~het + 1);
    const std::uint32_t rest = het ^ anchor;
    // Iterate over all subsets s of `rest`; chromosome 1 carries Two at
    // anchor and at the loci in s.
    std::uint32_t s = 0;
    do {
      const HaplotypeCode h1 = p.hom_two_mask | anchor | s;
      const HaplotypeCode h2 = p.hom_two_mask | (rest ^ s);
      visit(h1, h2, 2.0);
      s = (s - rest) & rest;  // next subset of rest
    } while (s != 0);
    return;
  }

  // Missing loci: marginalize over every ordered resolution — each
  // chromosome independently carries any allele at each missing locus.
  std::uint32_t s = 0;  // het bits assigned to chromosome 1
  do {
    std::uint32_t m1 = 0;  // missing-locus Two alleles, chromosome 1
    do {
      std::uint32_t m2 = 0;  // missing-locus Two alleles, chromosome 2
      do {
        const HaplotypeCode h1 = p.hom_two_mask | s | m1;
        const HaplotypeCode h2 = p.hom_two_mask | (het ^ s) | m2;
        visit(h1, h2, 1.0);
        m2 = (m2 - miss) & miss;
      } while (m2 != 0);
      m1 = (m1 - miss) & miss;
    } while (m1 != 0);
    s = (s - het) & het;
  } while (s != 0);
}

GenotypePattern pattern_of(const genomics::GenotypeMatrix& genotypes,
                           std::span<const SnpIndex> snps,
                           std::uint32_t individual) {
  LDGA_EXPECTS(!snps.empty() && snps.size() <= kMaxEmLoci);
  GenotypePattern pattern;
  pattern.count = 1.0;
  for (std::uint32_t j = 0; j < snps.size(); ++j) {
    switch (genotypes.at(individual, snps[j])) {
      case Genotype::HomOne:
        break;
      case Genotype::Het:
        pattern.het_mask |= 1u << j;
        break;
      case Genotype::HomTwo:
        pattern.hom_two_mask |= 1u << j;
        break;
      case Genotype::Missing:
        pattern.missing_mask |= 1u << j;
        break;
    }
  }
  return pattern;
}

std::string haplotype_label(HaplotypeCode code, std::uint32_t loci) {
  std::string label(loci, '1');
  for (std::uint32_t j = 0; j < loci; ++j) {
    if ((code >> j) & 1u) label[j] = '2';
  }
  return label;
}

}  // namespace ldga::stats

// Test-only reference implementations of the EH-DIALL stage — the
// oracles the production pipeline is held to, bit for bit.
//
// Production groups genotype patterns with packed popcount walks
// (GenotypePatternTable::build_packed) and runs EM over compiled phase
// programs (em_kernel.hpp). The code here does the same work the
// plain way: a per-individual byte scan of the genotype matrix, and a
// dense 2^k EM that re-enumerates every pattern's compatible phase
// pairs through a visitor on each iteration. It shares no kernel with
// production beyond for_each_compatible_pair and the equilibrium
// allele frequencies, so agreement is evidence, not tautology. Only
// tests link this library.
#pragma once

#include <cstdint>
#include <span>

#include "genomics/dataset.hpp"
#include "genomics/genotype_matrix.hpp"
#include "genomics/types.hpp"
#include "stats/eh_diall.hpp"
#include "stats/em_haplotype.hpp"

namespace ldga::stats::reference {

/// Groups the given individuals' genotypes at the selected loci by
/// scanning the byte matrix one genotype at a time. Under CompleteCase,
/// individuals missing any selected locus are excluded and counted;
/// under Marginalize they are kept with the missing loci flagged.
GenotypePatternTable build_pattern_table(
    const genomics::GenotypeMatrix& genotypes,
    std::span<const genomics::SnpIndex> snps,
    std::span<const std::uint32_t> individuals,
    MissingPolicy missing = MissingPolicy::CompleteCase);

/// Dense EM to convergence from the linkage-equilibrium start (the
/// product of single-locus allele frequencies, EH's choice).
EmResult estimate_haplotype_frequencies(const GenotypePatternTable& table,
                                        const EmConfig& config = {});

/// Log-likelihood of the patterns under the given dense haplotype
/// frequencies (sum over patterns of count · log P(genotype)).
double genotype_log_likelihood(const GenotypePatternTable& table,
                               std::span<const double> frequencies);

/// EH-DIALL's three-way analysis (affected, unaffected, pooled) of one
/// candidate through the two oracles above. The pooled table is a
/// byte scan over both groups. Timings stay zero.
EhDiallResult analyze(const genomics::Dataset& dataset,
                      std::span<const genomics::SnpIndex> snps,
                      const EmConfig& config = {});

}  // namespace ldga::stats::reference

// The unified genotype-storage interface.
//
// Every consumer of genotype data — the EH-DIALL group kernels, the
// LD prefilter, the windowed GA driver — works against one
// abstraction: a store of 2-bit genotypes in SNP-major bitplanes (the
// packed_genotype.hpp layout) that can answer per-locus counting
// questions and hand out *column slices*: a locus range × individual
// subset re-packed contiguously, so evaluators touch only the loci
// they score. Two implementations exist:
//
//   * PackedGenotypeMatrix — in-memory planes (built from a byte
//     GenotypeMatrix via the packed adapter, or from raw planes);
//   * PackedGenotypeStore — a memory-mapped on-disk store
//     (packed_store.hpp) whose planes live in the page cache, which is
//     what lets 10^5–10^6-SNP panels be scanned without rebuilding a
//     matrix in RAM per run.
//
// The interface is deliberately narrow: plane-word access is the one
// primitive every popcount kernel needs, and slice() is the one
// operation that crosses from "whole panel" to "working set". Slices
// are plain PackedGenotypeMatrix values, so everything downstream of a
// slice is oblivious to where the bits came from — a window slice of
// an mmap'd store evaluates bit-for-bit identically to the same loci
// of an in-memory matrix.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "genomics/types.hpp"

namespace ldga::genomics {

class GenotypeMatrix;
class PackedGenotypeMatrix;
class SnpPanel;
class Dataset;

/// Per-locus genotype tallies produced by the popcount kernels.
struct LocusCounts {
  std::uint32_t hom_one = 0;
  std::uint32_t het = 0;
  std::uint32_t hom_two = 0;
  std::uint32_t missing = 0;

  std::uint32_t typed() const { return hom_one + het + hom_two; }
  /// Copies of Allele::Two among the typed chromosomes.
  std::uint32_t allele_two() const { return het + 2 * hom_two; }
};

class GenotypeStore {
 public:
  virtual ~GenotypeStore() = default;

  virtual std::uint32_t individual_count() const = 0;
  virtual std::uint32_t snp_count() const = 0;
  /// 64-bit words per SNP plane (= ceil(individual_count / 64); padding
  /// bits beyond individual_count are zero in both planes).
  virtual std::uint32_t words_per_snp() const = 0;

  /// Random-access decode of one genotype.
  virtual Genotype at(std::uint32_t individual, SnpIndex snp) const = 0;

  /// Raw plane words of one SNP column. The spans stay valid for the
  /// lifetime of the store; for the mmap store they alias the mapping.
  virtual std::span<const std::uint64_t> low_plane(SnpIndex snp) const = 0;
  virtual std::span<const std::uint64_t> high_plane(SnpIndex snp) const = 0;

  /// Per-locus genotype tallies in one pass of popcounts.
  virtual LocusCounts locus_counts(SnpIndex snp) const;

  /// Readahead hint: loci [first, first + count) will be read soon.
  /// Purely advisory — correctness never depends on it. The default is
  /// a no-op (in-memory stores are always resident); the mmap'd store
  /// issues madvise(WILLNEED) so the kernel pages the window in ahead
  /// of the faulting reader. The window scan calls this for each
  /// claimed window and the next one, keeping page faults off the GA's
  /// critical path.
  virtual void prefetch_loci(SnpIndex first, std::uint32_t count) const {
    (void)first;
    (void)count;
  }

  /// Column slice: loci [first, first + count) × the given individuals
  /// (in the given order), re-packed contiguously with both axes
  /// re-indexed from 0. This is how per-group evaluation kernels
  /// (affected vs unaffected) and per-window GA runs obtain their
  /// working set without touching the rest of the panel. When
  /// `individuals` covers 0..individual_count−1 in order, plane words
  /// are copied wholesale; otherwise bits are gathered per individual.
  PackedGenotypeMatrix slice(SnpIndex first, std::uint32_t count,
                             std::span<const std::uint32_t> individuals) const;

  /// slice() over every individual in store order.
  PackedGenotypeMatrix slice_loci(SnpIndex first, std::uint32_t count) const;

  /// Decode of loci [first, first + count) into a dense byte matrix
  /// (every individual). The interop path back to GenotypeMatrix
  /// consumers; cost is count × individual_count decodes, so callers
  /// use it for bounded windows, not whole genome-scale panels.
  GenotypeMatrix decode_loci(SnpIndex first, std::uint32_t count) const;
};

/// A self-contained case/control Dataset over loci [first, first +
/// count) of a store: panel slice, decoded genotypes, copied statuses.
/// This is the window working set the windowed GA driver hands to
/// HaplotypeEvaluator — SNP index `i` of the result is global index
/// `first + i`. `panel` and `statuses` must match the store's shape.
Dataset materialize_window(const GenotypeStore& store, const SnpPanel& panel,
                           std::span<const Status> statuses, SnpIndex first,
                           std::uint32_t count);

}  // namespace ldga::genomics

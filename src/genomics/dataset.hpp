// A case/control SNP dataset: marker panel + genotype matrix + per-
// individual disease status. This mirrors the paper's first input table
// ("values of SNPs for all the people" plus group membership).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/genotype_matrix.hpp"
#include "genomics/snp_panel.hpp"
#include "genomics/types.hpp"

namespace ldga::genomics {

class Dataset {
 public:
  Dataset() = default;
  Dataset(SnpPanel panel, GenotypeMatrix genotypes,
          std::vector<Status> statuses);

  /// Opens a dataset from any supported on-disk format, dispatching on
  /// content: a packed genotype store (sniffed by magic bytes), a
  /// linkage PED file (".ped" extension; the sibling ".map" is loaded
  /// alongside), or the native individuals-table text, then validates
  /// the result. Throws DataError naming the format and the failing
  /// property.
  static Dataset open(const std::string& path);

  const SnpPanel& panel() const { return panel_; }
  const GenotypeMatrix& genotypes() const { return genotypes_; }
  const std::vector<Status>& statuses() const { return statuses_; }

  std::uint32_t individual_count() const {
    return genotypes_.individual_count();
  }
  std::uint32_t snp_count() const { return genotypes_.snp_count(); }

  Status status(std::uint32_t individual) const;

  std::uint32_t count(Status s) const;

  /// Indices of individuals with the given status, in dataset order.
  std::vector<std::uint32_t> individuals_with(Status s) const;

  /// Throws DataError unless panel, matrix and status vector agree in
  /// shape and the matrix is non-degenerate.
  void validate() const;

 private:
  SnpPanel panel_;
  GenotypeMatrix genotypes_;
  std::vector<Status> statuses_;
};

}  // namespace ldga::genomics

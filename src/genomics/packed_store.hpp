// Memory-mapped on-disk packed genotype store.
//
// The genome-scale data path: a panel of 10^5–10^6 SNPs is converted
// once into a versioned, CRC-sealed file of 2-bit SNP-major bitplanes
// (exactly the packed_genotype.hpp layout, so every popcount kernel
// runs on the mapping unchanged), and each run memory-maps it instead
// of rebuilding a matrix in RAM. Evaluators pull chunked column
// slices — loci range × individual subset — through the GenotypeStore
// interface, so a windowed GA run touches only the pages of the loci
// it scores and the resident set stays bounded by the working window,
// not the panel.
//
// File layout (little-endian, 64-byte header, planes page-aligned):
//
//   [0]  u64 magic "LDGAPGS1"
//   [8]  u32 version        — readers reject other generations
//   [12] u32 individuals
//   [16] u32 snps
//   [20] u32 words_per_snp  — ceil(individuals / 64)
//   [24] u32 chunk_snps     — writer flush granularity (informational)
//   [28] u64 planes_offset  — page-aligned start of plane data
//   [36] u64 planes_bytes   — snps × words × 2 × 8
//   [44] u64 meta_bytes     — statuses + marker table, after the planes
//   [52] u32 payload_crc    — CRC-32 over planes then meta
//   [56] u32 header_crc     — CRC-32 over bytes [0, 56)
//   [60] u32 reserved (0)
//
// Plane data: per SNP, words_per_snp low-plane words then
// words_per_snp high-plane words (padding bits zero). Metadata:
// one status byte per individual, then per SNP a u32 name length, the
// name bytes, and a f64 position in kb.
//
// The writer streams columns through a bounded buffer (tmp file +
// fsync + rename in the crash-safe checkpoint style), so cohorts far
// larger than RAM can be converted chunk by chunk.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "genomics/genotype_store.hpp"
#include "genomics/snp_panel.hpp"
#include "genomics/types.hpp"

namespace ldga::genomics {

class Dataset;

class PackedGenotypeStore final : public GenotypeStore {
 public:
  static constexpr std::uint32_t kVersion = 1;

  /// Maps `path` read-only after validating magic, version, header
  /// seal, size (truncation) and the payload CRC (one sequential pass
  /// over the file). Throws DataError with the failing property named.
  static PackedGenotypeStore open(const std::string& path);

  PackedGenotypeStore(PackedGenotypeStore&& other) noexcept;
  PackedGenotypeStore& operator=(PackedGenotypeStore&& other) noexcept;
  PackedGenotypeStore(const PackedGenotypeStore&) = delete;
  PackedGenotypeStore& operator=(const PackedGenotypeStore&) = delete;
  ~PackedGenotypeStore() override;

  std::uint32_t individual_count() const override { return individuals_; }
  std::uint32_t snp_count() const override { return snps_; }
  std::uint32_t words_per_snp() const override { return words_; }

  Genotype at(std::uint32_t individual, SnpIndex snp) const override;
  std::span<const std::uint64_t> low_plane(SnpIndex snp) const override;
  std::span<const std::uint64_t> high_plane(SnpIndex snp) const override;

  /// madvise(WILLNEED) over the page range holding loci [first,
  /// first + count)'s plane words, so an upcoming window's pages stream
  /// in before the first plane read faults on them.
  void prefetch_loci(SnpIndex first, std::uint32_t count) const override;

  /// Marker metadata and per-individual statuses, decoded at open.
  const SnpPanel& panel() const { return panel_; }
  const std::vector<Status>& statuses() const { return statuses_; }

  const std::string& path() const { return path_; }
  std::uint32_t chunk_snps() const { return chunk_snps_; }
  /// Bytes of the backing file (header + planes + metadata).
  std::uint64_t file_bytes() const { return file_bytes_; }

  /// Full decode into an in-memory case/control Dataset — the interop
  /// path Dataset::open uses. Costs individuals × snps decodes, so it
  /// is for panels meant to fit in RAM; genome-scale consumers slice.
  Dataset to_dataset() const;

 private:
  PackedGenotypeStore() = default;

  const std::uint64_t* snp_words(SnpIndex snp) const;

  std::string path_;
  void* map_ = nullptr;         ///< whole-file read-only mapping
  std::uint64_t map_bytes_ = 0;
  std::uint64_t planes_offset_ = 0;
  std::uint64_t file_bytes_ = 0;
  std::uint32_t individuals_ = 0;
  std::uint32_t snps_ = 0;
  std::uint32_t words_ = 0;
  std::uint32_t chunk_snps_ = 0;
  SnpPanel panel_;
  std::vector<Status> statuses_;
};

/// Streaming column-major writer. Columns are appended one SNP at a
/// time and flushed every `chunk_snps` columns, so conversion memory
/// is O(chunk), independent of the panel. finish() seals the header
/// (CRCs) and publishes atomically via tmp + fsync + rename; a writer
/// destroyed unfinished removes its tmp file and publishes nothing.
class PackedStoreWriter {
 public:
  PackedStoreWriter(std::string path, std::vector<Status> statuses,
                    std::uint32_t chunk_snps = 4096);
  PackedStoreWriter(const PackedStoreWriter&) = delete;
  PackedStoreWriter& operator=(const PackedStoreWriter&) = delete;
  ~PackedStoreWriter();

  /// Appends one SNP column: `genotypes` holds every individual's
  /// genotype at this marker, in cohort order.
  void add_snp(const SnpInfo& info, std::span<const Genotype> genotypes);

  std::uint32_t snps_written() const { return snps_; }

  /// Flushes, writes metadata, seals and atomically publishes the
  /// store. No columns may be added afterwards.
  void finish();

 private:
  void flush_columns();

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  bool finished_ = false;
  std::uint32_t chunk_snps_;
  std::uint32_t individuals_;
  std::uint32_t words_;
  std::uint32_t snps_ = 0;
  std::uint32_t payload_crc_ = 0;
  std::vector<Status> statuses_;
  std::vector<SnpInfo> infos_;
  std::vector<std::uint64_t> buffer_;  ///< pending columns' plane words
  std::uint32_t buffered_ = 0;
};

/// One-call conversion of an in-memory Dataset to the on-disk format.
void write_packed_store(const std::string& path, const Dataset& dataset,
                        std::uint32_t chunk_snps = 4096);

}  // namespace ldga::genomics

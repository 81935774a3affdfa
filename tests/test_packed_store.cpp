#include "genomics/packed_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "genomics/dataset_io.hpp"
#include "genomics/packed_genotype.hpp"
#include "genomics/synthetic.hpp"
#include "test_support.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace ldga::genomics {
namespace {

std::string temp_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("ldga_store_") + tag + "_" +
           std::to_string(::getpid()) + ".pgs"))
      .string();
}

struct PathGuard {
  explicit PathGuard(std::string p) : path(std::move(p)) {}
  ~PathGuard() { std::remove(path.c_str()); }
  std::string path;
};

Dataset sample_dataset() {
  return ldga::testing::small_synthetic(17, 2, 99).dataset;
}

/// Patches `bytes` into the file at `offset`.
void patch_file(const std::string& path, std::uint64_t offset,
                std::span<const std::uint8_t> bytes) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(PackedStore, RoundTripsEveryGenotypeAndMetadata) {
  const Dataset dataset = sample_dataset();
  PathGuard guard(temp_path("roundtrip"));
  write_packed_store(guard.path, dataset);

  const PackedGenotypeStore store = PackedGenotypeStore::open(guard.path);
  ASSERT_EQ(store.individual_count(), dataset.individual_count());
  ASSERT_EQ(store.snp_count(), dataset.snp_count());
  EXPECT_EQ(store.statuses(), dataset.statuses());
  for (SnpIndex s = 0; s < dataset.snp_count(); ++s) {
    EXPECT_EQ(store.panel().name(s), dataset.panel().name(s));
    EXPECT_EQ(store.panel().position_kb(s), dataset.panel().position_kb(s));
    for (std::uint32_t i = 0; i < dataset.individual_count(); ++i) {
      ASSERT_EQ(store.at(i, s), dataset.genotypes().at(i, s))
          << "individual " << i << " snp " << s;
    }
  }
}

TEST(PackedStore, PlanesMatchInMemoryPackingBitForBit) {
  const Dataset dataset = sample_dataset();
  PathGuard guard(temp_path("planes"));
  write_packed_store(guard.path, dataset);

  const PackedGenotypeStore store = PackedGenotypeStore::open(guard.path);
  const PackedGenotypeMatrix reference(dataset.genotypes());
  ASSERT_EQ(store.words_per_snp(), reference.words_per_snp());
  for (SnpIndex s = 0; s < dataset.snp_count(); ++s) {
    const auto lo_s = store.low_plane(s);
    const auto lo_r = reference.low_plane(s);
    const auto hi_s = store.high_plane(s);
    const auto hi_r = reference.high_plane(s);
    for (std::uint32_t w = 0; w < store.words_per_snp(); ++w) {
      ASSERT_EQ(lo_s[w], lo_r[w]);
      ASSERT_EQ(hi_s[w], hi_r[w]);
    }
  }
}

TEST(PackedStore, ToDatasetEqualsSource) {
  const Dataset dataset = sample_dataset();
  PathGuard guard(temp_path("todataset"));
  write_packed_store(guard.path, dataset);

  const Dataset decoded = PackedGenotypeStore::open(guard.path).to_dataset();
  decoded.validate();
  ASSERT_EQ(decoded.snp_count(), dataset.snp_count());
  for (std::uint32_t i = 0; i < dataset.individual_count(); ++i) {
    for (SnpIndex s = 0; s < dataset.snp_count(); ++s) {
      ASSERT_EQ(decoded.genotypes().at(i, s), dataset.genotypes().at(i, s));
    }
  }
}

TEST(PackedStore, RejectsMissingAndGarbageFiles) {
  EXPECT_THROW(PackedGenotypeStore::open("/nonexistent/no.pgs"), DataError);

  PathGuard guard(temp_path("garbage"));
  std::ofstream(guard.path) << "definitely not a packed store, "
                            << std::string(100, 'x');
  EXPECT_THROW(PackedGenotypeStore::open(guard.path), DataError);
}

TEST(PackedStore, RejectsTruncatedFiles) {
  const Dataset dataset = sample_dataset();
  PathGuard guard(temp_path("truncated"));
  write_packed_store(guard.path, dataset);

  const auto full = std::filesystem::file_size(guard.path);
  std::filesystem::resize_file(guard.path, full - 16);
  try {
    PackedGenotypeStore::open(guard.path);
    FAIL() << "truncated store was accepted";
  } catch (const DataError& error) {
    EXPECT_NE(std::string(error.what()).find("truncated"),
              std::string::npos);
  }

  // Even a header-only stub must be rejected.
  std::filesystem::resize_file(guard.path, 32);
  EXPECT_THROW(PackedGenotypeStore::open(guard.path), DataError);
}

TEST(PackedStore, RejectsVersionMismatch) {
  const Dataset dataset = sample_dataset();
  PathGuard guard(temp_path("version"));
  write_packed_store(guard.path, dataset);

  // Bump the version field and re-seal the header so only the version
  // check can fire.
  std::vector<std::uint8_t> header(64);
  {
    std::ifstream in(guard.path, std::ios::binary);
    in.read(reinterpret_cast<char*>(header.data()), 64);
  }
  const std::uint32_t bumped = PackedGenotypeStore::kVersion + 7;
  std::memcpy(header.data() + 8, &bumped, 4);
  const std::uint32_t seal = util::crc32({header.data(), 56});
  std::memcpy(header.data() + 56, &seal, 4);
  patch_file(guard.path, 0, header);

  try {
    PackedGenotypeStore::open(guard.path);
    FAIL() << "version-mismatched store was accepted";
  } catch (const DataError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
}

/// The DataError message `open` refuses `path` with; empty if it opens.
std::string open_error(const std::string& path) {
  try {
    (void)PackedGenotypeStore::open(path);
  } catch (const DataError& error) {
    return error.what();
  }
  return {};
}

TEST(PackedStore, RejectsHeaderAndPayloadCorruption) {
  const Dataset dataset = sample_dataset();
  PathGuard guard(temp_path("corrupt"));
  PathGuard header_guard(temp_path("corrupt_header"));
  write_packed_store(guard.path, dataset);
  std::filesystem::copy_file(guard.path, header_guard.path,
                             std::filesystem::copy_options::overwrite_existing);

  // Flip a byte inside the plane data: the payload CRC catches it.
  const std::uint8_t flip[1] = {0xFF};
  patch_file(guard.path, 4096 + 8, flip);
  const std::string payload_error = open_error(guard.path);
  EXPECT_NE(payload_error.find("payload CRC"), std::string::npos)
      << payload_error;

  // Flip a header byte of an intact copy: the seal catches it.
  patch_file(header_guard.path, 16, flip);
  const std::string header_error = open_error(header_guard.path);
  EXPECT_NE(header_error.find("seal"), std::string::npos) << header_error;
}

TEST(PackedStore, AbandonedWriterPublishesNothing) {
  PathGuard guard(temp_path("abandoned"));
  {
    PackedStoreWriter writer(guard.path,
                             {Status::Affected, Status::Unaffected});
    SnpInfo info{"snp1", 0.0};
    const std::vector<Genotype> column{Genotype::Het, Genotype::HomOne};
    writer.add_snp(info, column);
    // No finish(): destruction must clean up the tmp file.
  }
  EXPECT_FALSE(std::filesystem::exists(guard.path));
  EXPECT_FALSE(std::filesystem::exists(guard.path + ".tmp"));
}

TEST(PackedStore, WriterRejectsShapeErrors) {
  EXPECT_THROW(PackedStoreWriter("x.pgs", {}), DataError);

  PathGuard guard(temp_path("shape"));
  PackedStoreWriter writer(guard.path,
                           {Status::Affected, Status::Unaffected});
  const std::vector<Genotype> wrong{Genotype::Het};
  EXPECT_THROW(writer.add_snp(SnpInfo{"snp1", 0.0}, wrong), DataError);
}

TEST(PackedStore, ChunkedWritesMatchOneShotWrites) {
  const Dataset dataset = sample_dataset();
  PathGuard one(temp_path("oneshot"));
  PathGuard chunked(temp_path("chunked"));
  write_packed_store(one.path, dataset);
  write_packed_store(chunked.path, dataset, /*chunk_snps=*/3);

  const PackedGenotypeStore a = PackedGenotypeStore::open(one.path);
  const PackedGenotypeStore b = PackedGenotypeStore::open(chunked.path);
  ASSERT_EQ(a.snp_count(), b.snp_count());
  EXPECT_EQ(b.chunk_snps(), 3u);
  for (SnpIndex s = 0; s < a.snp_count(); ++s) {
    for (std::uint32_t w = 0; w < a.words_per_snp(); ++w) {
      ASSERT_EQ(a.low_plane(s)[w], b.low_plane(s)[w]);
      ASSERT_EQ(a.high_plane(s)[w], b.high_plane(s)[w]);
    }
  }
}

TEST(PackedStore, DatasetOpenDispatchesOnContent) {
  const Dataset dataset = sample_dataset();

  PathGuard store_guard(temp_path("dispatch"));
  write_packed_store(store_guard.path, dataset);
  const Dataset from_store = Dataset::open(store_guard.path);
  ASSERT_EQ(from_store.snp_count(), dataset.snp_count());
  EXPECT_EQ(from_store.statuses(), dataset.statuses());

  PathGuard text_guard(temp_path("dispatch_text"));
  save_dataset(text_guard.path, dataset);
  const Dataset from_text = Dataset::open(text_guard.path);
  ASSERT_EQ(from_text.snp_count(), dataset.snp_count());
  for (std::uint32_t i = 0; i < dataset.individual_count(); ++i) {
    for (SnpIndex s = 0; s < dataset.snp_count(); ++s) {
      ASSERT_EQ(from_store.genotypes().at(i, s),
                dataset.genotypes().at(i, s));
      ASSERT_EQ(from_text.genotypes().at(i, s),
                dataset.genotypes().at(i, s));
    }
  }

  EXPECT_THROW(Dataset::open("/nonexistent/nowhere.txt"), DataError);
}

TEST(PackedStore, SyntheticStoreStreamsChunksWithPlantedSignal) {
  SyntheticStoreConfig config;
  config.cohort.snp_count = 24;
  config.cohort.affected_count = 20;
  config.cohort.unaffected_count = 20;
  config.cohort.unknown_count = 0;
  config.cohort.active_snp_count = 2;
  config.total_snps = 100;
  config.chunk_snps = 32;

  PathGuard guard(temp_path("synthetic"));
  Rng rng(77);
  const SyntheticStoreResult result =
      write_synthetic_store(guard.path, config, rng);
  EXPECT_EQ(result.snps_written, 100u);
  ASSERT_EQ(result.truth.snps.size(), 2u);
  EXPECT_LT(result.truth.snps.back(), 24u);  // signal chunk is global head

  const PackedGenotypeStore store = PackedGenotypeStore::open(guard.path);
  EXPECT_EQ(store.snp_count(), 100u);
  EXPECT_EQ(store.individual_count(), 40u);
  EXPECT_EQ(store.statuses(), result.statuses);
  EXPECT_EQ(store.panel().name(0), "snp0000001");
  EXPECT_EQ(store.panel().name(99), "snp0000100");

  // The signal chunk reproduces generate_synthetic with the same seed.
  Rng reference_rng(77);
  const SyntheticDataset reference =
      generate_synthetic(config.cohort, reference_rng);
  for (std::uint32_t i = 0; i < store.individual_count(); ++i) {
    for (SnpIndex s = 0; s < config.cohort.snp_count; ++s) {
      ASSERT_EQ(store.at(i, s), reference.dataset.genotypes().at(i, s));
    }
  }
}

TEST(GenotypeStoreApi, StoreSlicesMatchInMemorySlices) {
  const Dataset dataset = sample_dataset();
  PathGuard guard(temp_path("slices"));
  write_packed_store(guard.path, dataset);
  const PackedGenotypeStore store = PackedGenotypeStore::open(guard.path);
  const PackedGenotypeMatrix memory(dataset.genotypes());

  const std::vector<std::uint32_t> some_rows{0, 3, 5, 8, 13};
  const auto from_store = store.slice(4, 9, some_rows);
  const auto from_memory = memory.slice(4, 9, some_rows);
  ASSERT_EQ(from_store.snp_count(), from_memory.snp_count());
  ASSERT_EQ(from_store.individual_count(), from_memory.individual_count());
  for (SnpIndex s = 0; s < from_store.snp_count(); ++s) {
    for (std::uint32_t w = 0; w < from_store.words_per_snp(); ++w) {
      ASSERT_EQ(from_store.low_plane(s)[w], from_memory.low_plane(s)[w]);
      ASSERT_EQ(from_store.high_plane(s)[w], from_memory.high_plane(s)[w]);
    }
  }

  // Locus counts agree through the virtual interface too.
  for (SnpIndex s = 0; s < store.snp_count(); ++s) {
    const LocusCounts a = store.locus_counts(s);
    const LocusCounts b = memory.locus_counts(s);
    ASSERT_EQ(a.hom_one, b.hom_one);
    ASSERT_EQ(a.het, b.het);
    ASSERT_EQ(a.hom_two, b.hom_two);
    ASSERT_EQ(a.missing, b.missing);
  }
}

}  // namespace
}  // namespace ldga::genomics

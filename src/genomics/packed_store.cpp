#include "genomics/packed_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "genomics/dataset.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace ldga::genomics {

namespace {

/// "LDGAPGS1" read as a little-endian word.
constexpr std::uint64_t kMagic = 0x31534750'4147444cULL;

constexpr std::uint64_t kHeaderBytes = 64;
constexpr std::uint64_t kPlanesOffset = 4096;  ///< page-aligned planes
constexpr std::uint32_t kMaxNameBytes = 4096;

std::uint32_t words_for(std::uint32_t individuals) {
  return (individuals + 63) / 64;
}

struct Header {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t individuals = 0;
  std::uint32_t snps = 0;
  std::uint32_t words = 0;
  std::uint32_t chunk_snps = 0;
  std::uint64_t planes_offset = 0;
  std::uint64_t planes_bytes = 0;
  std::uint64_t meta_bytes = 0;
  std::uint32_t payload_crc = 0;
};

void put(std::uint8_t* out, std::size_t& at, const void* value,
         std::size_t bytes) {
  std::memcpy(out + at, value, bytes);
  at += bytes;
}

void get(const std::uint8_t* in, std::size_t& at, void* value,
         std::size_t bytes) {
  std::memcpy(value, in + at, bytes);
  at += bytes;
}

/// Serializes the header and seals it: bytes [0, 56) are covered by the
/// CRC stored at [56].
void encode_header(const Header& header, std::uint8_t out[kHeaderBytes]) {
  std::memset(out, 0, kHeaderBytes);
  std::size_t at = 0;
  put(out, at, &header.magic, 8);
  put(out, at, &header.version, 4);
  put(out, at, &header.individuals, 4);
  put(out, at, &header.snps, 4);
  put(out, at, &header.words, 4);
  put(out, at, &header.chunk_snps, 4);
  put(out, at, &header.planes_offset, 8);
  put(out, at, &header.planes_bytes, 8);
  put(out, at, &header.meta_bytes, 8);
  put(out, at, &header.payload_crc, 4);
  const std::uint32_t header_crc = util::crc32({out, at});
  put(out, at, &header_crc, 4);
}

Header decode_header(const std::uint8_t in[kHeaderBytes],
                     const std::string& path) {
  Header header;
  std::size_t at = 0;
  get(in, at, &header.magic, 8);
  get(in, at, &header.version, 4);
  get(in, at, &header.individuals, 4);
  get(in, at, &header.snps, 4);
  get(in, at, &header.words, 4);
  get(in, at, &header.chunk_snps, 4);
  get(in, at, &header.planes_offset, 8);
  get(in, at, &header.planes_bytes, 8);
  get(in, at, &header.meta_bytes, 8);
  get(in, at, &header.payload_crc, 4);
  if (header.magic != kMagic) {
    throw DataError("packed store: " + path +
                    " is not a packed genotype store (bad magic)");
  }
  std::uint32_t header_crc = 0;
  get(in, at, &header_crc, 4);
  if (header_crc != util::crc32({in, at - 4})) {
    throw DataError("packed store: " + path + " has a corrupt header "
                    "(seal mismatch)");
  }
  if (header.version != PackedGenotypeStore::kVersion) {
    throw DataError("packed store: " + path + " is format version " +
                    std::to_string(header.version) + "; this build reads "
                    "version " +
                    std::to_string(PackedGenotypeStore::kVersion));
  }
  return header;
}

void write_all(int fd, const void* data, std::size_t bytes,
               const std::string& path) {
  const auto* cursor = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < bytes) {
    const ssize_t n = ::write(fd, cursor + written, bytes - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw DataError("packed store: short write to " + path + ": " +
                      std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

void sync_parent_directory(const std::string& path) {
  std::string directory = std::filesystem::path(path).parent_path().string();
  // push_back, not = "." — the assign path trips a GCC 12 -Wrestrict
  // false positive when inlined under the sanitizer presets.
  if (directory.empty()) directory.push_back('.');
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: the file itself is already synced
  ::fsync(fd);
  ::close(fd);
}

std::span<const std::uint8_t> bytes_of(const void* base, std::uint64_t offset,
                                       std::uint64_t count) {
  return {static_cast<const std::uint8_t*>(base) + offset,
          static_cast<std::size_t>(count)};
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader

PackedGenotypeStore PackedGenotypeStore::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw DataError("packed store: cannot open '" + path + "': " +
                    std::strerror(errno));
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw DataError("packed store: cannot stat '" + path + "': " + why);
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    ::close(fd);
    throw DataError("packed store: " + path + " is truncated (" +
                    std::to_string(file_bytes) + " bytes, header needs " +
                    std::to_string(kHeaderBytes) + ")");
  }

  std::uint8_t raw[kHeaderBytes];
  std::size_t got = 0;
  while (got < kHeaderBytes) {
    const ssize_t n = ::pread(fd, raw + got, kHeaderBytes - got,
                              static_cast<off_t>(got));
    if (n <= 0 && errno != EINTR) {
      ::close(fd);
      throw DataError("packed store: cannot read header of " + path);
    }
    if (n > 0) got += static_cast<std::size_t>(n);
  }

  Header header;
  try {
    header = decode_header(raw, path);
  } catch (...) {
    ::close(fd);
    throw;
  }

  const std::uint64_t expected_planes = static_cast<std::uint64_t>(
      header.snps) * header.words * 2 * sizeof(std::uint64_t);
  if (header.words != words_for(header.individuals) ||
      header.planes_bytes != expected_planes ||
      header.planes_offset < kHeaderBytes) {
    ::close(fd);
    throw DataError("packed store: " + path +
                    " has an inconsistent header (shape fields disagree)");
  }
  const std::uint64_t needed =
      header.planes_offset + header.planes_bytes + header.meta_bytes;
  if (file_bytes < needed) {
    ::close(fd);
    throw DataError("packed store: " + path + " is truncated (" +
                    std::to_string(file_bytes) + " bytes, header promises " +
                    std::to_string(needed) + ")");
  }

  void* map = ::mmap(nullptr, static_cast<std::size_t>(file_bytes), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    throw DataError("packed store: mmap of '" + path + "' failed: " +
                    std::strerror(errno));
  }

  PackedGenotypeStore store;
  store.path_ = path;
  store.map_ = map;
  store.map_bytes_ = file_bytes;
  store.planes_offset_ = header.planes_offset;
  store.file_bytes_ = needed;
  store.individuals_ = header.individuals;
  store.snps_ = header.snps;
  store.words_ = header.words;
  store.chunk_snps_ = header.chunk_snps;

  const std::uint64_t meta_offset = header.planes_offset + header.planes_bytes;
  std::uint32_t crc = util::crc32(
      bytes_of(map, header.planes_offset, header.planes_bytes));
  crc = util::crc32(bytes_of(map, meta_offset, header.meta_bytes), crc);
  if (crc != header.payload_crc) {
    throw DataError("packed store: " + path +
                    " failed its payload CRC (corrupt plane or metadata "
                    "bytes)");
  }

  // Metadata: statuses, then the marker table.
  const std::uint8_t* meta =
      static_cast<const std::uint8_t*>(map) + meta_offset;
  std::uint64_t remaining = header.meta_bytes;
  if (remaining < header.individuals) {
    throw DataError("packed store: " + path + " metadata is shorter than "
                    "its status table");
  }
  store.statuses_.reserve(header.individuals);
  for (std::uint32_t i = 0; i < header.individuals; ++i) {
    const std::uint8_t code = meta[i];
    if (code > static_cast<std::uint8_t>(Status::Unknown)) {
      throw DataError("packed store: " + path + " has an invalid status "
                      "code " + std::to_string(code));
    }
    store.statuses_.push_back(static_cast<Status>(code));
  }
  meta += header.individuals;
  remaining -= header.individuals;

  std::vector<SnpInfo> infos;
  infos.reserve(header.snps);
  for (std::uint32_t s = 0; s < header.snps; ++s) {
    std::uint32_t name_len = 0;
    if (remaining < 4) {
      throw DataError("packed store: " + path + " marker table is "
                      "truncated");
    }
    std::memcpy(&name_len, meta, 4);
    meta += 4;
    remaining -= 4;
    if (name_len > kMaxNameBytes || remaining < name_len + 8) {
      throw DataError("packed store: " + path + " marker table is "
                      "truncated or corrupt");
    }
    SnpInfo info;
    info.name.assign(reinterpret_cast<const char*>(meta), name_len);
    meta += name_len;
    std::memcpy(&info.position_kb, meta, 8);
    meta += 8;
    remaining -= name_len + 8;
    infos.push_back(std::move(info));
  }
  store.panel_ = SnpPanel(std::move(infos));
  return store;
}

PackedGenotypeStore::PackedGenotypeStore(PackedGenotypeStore&& other) noexcept
    : path_(std::move(other.path_)),
      map_(std::exchange(other.map_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      planes_offset_(other.planes_offset_),
      file_bytes_(other.file_bytes_),
      individuals_(other.individuals_),
      snps_(other.snps_),
      words_(other.words_),
      chunk_snps_(other.chunk_snps_),
      panel_(std::move(other.panel_)),
      statuses_(std::move(other.statuses_)) {}

PackedGenotypeStore& PackedGenotypeStore::operator=(
    PackedGenotypeStore&& other) noexcept {
  if (this == &other) return *this;
  if (map_ != nullptr) ::munmap(map_, static_cast<std::size_t>(map_bytes_));
  path_ = std::move(other.path_);
  map_ = std::exchange(other.map_, nullptr);
  map_bytes_ = std::exchange(other.map_bytes_, 0);
  planes_offset_ = other.planes_offset_;
  file_bytes_ = other.file_bytes_;
  individuals_ = other.individuals_;
  snps_ = other.snps_;
  words_ = other.words_;
  chunk_snps_ = other.chunk_snps_;
  panel_ = std::move(other.panel_);
  statuses_ = std::move(other.statuses_);
  return *this;
}

PackedGenotypeStore::~PackedGenotypeStore() {
  if (map_ != nullptr) ::munmap(map_, static_cast<std::size_t>(map_bytes_));
}

const std::uint64_t* PackedGenotypeStore::snp_words(SnpIndex snp) const {
  const auto* base = static_cast<const std::uint8_t*>(map_) + planes_offset_;
  return reinterpret_cast<const std::uint64_t*>(base) +
         static_cast<std::size_t>(snp) * words_ * 2;
}

Genotype PackedGenotypeStore::at(std::uint32_t individual,
                                 SnpIndex snp) const {
  LDGA_EXPECTS(individual < individuals_ && snp < snps_);
  const std::uint64_t* words = snp_words(snp);
  const std::uint32_t word = individual / 64;
  const std::uint64_t bit = std::uint64_t{1} << (individual % 64);
  const std::uint32_t lo = (words[word] & bit) ? 1u : 0u;
  const std::uint32_t hi = (words[words_ + word] & bit) ? 2u : 0u;
  return static_cast<Genotype>(lo | hi);
}

std::span<const std::uint64_t> PackedGenotypeStore::low_plane(
    SnpIndex snp) const {
  LDGA_EXPECTS(snp < snps_);
  return {snp_words(snp), words_};
}

std::span<const std::uint64_t> PackedGenotypeStore::high_plane(
    SnpIndex snp) const {
  LDGA_EXPECTS(snp < snps_);
  return {snp_words(snp) + words_, words_};
}

void PackedGenotypeStore::prefetch_loci(SnpIndex first,
                                        std::uint32_t count) const {
  if (count == 0 || first >= snps_) return;
  count = std::min(count, snps_ - first);
  // Both planes of a SNP are contiguous (lo then hi), so the whole
  // window is one byte range; round it out to page boundaries —
  // madvise requires a page-aligned start.
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t bytes_per_snp =
      static_cast<std::uint64_t>(words_) * 2 * sizeof(std::uint64_t);
  const std::uint64_t begin = planes_offset_ + first * bytes_per_snp;
  const std::uint64_t end = begin + count * bytes_per_snp;
  const std::uint64_t aligned = begin / page * page;
  const std::uint64_t length =
      std::min<std::uint64_t>(end, map_bytes_) - aligned;
  // Advisory only: on failure readers just fault the pages themselves.
  (void)::posix_madvise(static_cast<std::uint8_t*>(map_) + aligned,
                        static_cast<std::size_t>(length),
                        POSIX_MADV_WILLNEED);
}

Dataset PackedGenotypeStore::to_dataset() const {
  return Dataset(panel_, decode_loci(0, snps_), statuses_);
}

// ---------------------------------------------------------------------------
// Writer

PackedStoreWriter::PackedStoreWriter(std::string path,
                                     std::vector<Status> statuses,
                                     std::uint32_t chunk_snps)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      chunk_snps_(chunk_snps),
      individuals_(static_cast<std::uint32_t>(statuses.size())),
      words_(words_for(individuals_)),
      statuses_(std::move(statuses)) {
  if (individuals_ == 0) {
    throw DataError("packed store: a store needs at least one individual");
  }
  if (chunk_snps_ == 0) {
    throw ConfigError("packed store: chunk_snps must be >= 1");
  }
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw DataError("packed store: cannot write '" + tmp_path_ + "': " +
                    std::strerror(errno));
  }
  // Placeholder header + alignment padding; sealed in finish().
  const std::vector<std::uint8_t> zeros(kPlanesOffset, 0);
  write_all(fd_, zeros.data(), zeros.size(), tmp_path_);
  buffer_.reserve(static_cast<std::size_t>(chunk_snps_) * words_ * 2);
}

PackedStoreWriter::~PackedStoreWriter() {
  if (finished_) return;
  if (fd_ >= 0) ::close(fd_);
  ::unlink(tmp_path_.c_str());
}

void PackedStoreWriter::add_snp(const SnpInfo& info,
                                std::span<const Genotype> genotypes) {
  LDGA_EXPECTS(!finished_);
  if (genotypes.size() != individuals_) {
    throw DataError("packed store: column '" + info.name + "' has " +
                    std::to_string(genotypes.size()) + " genotypes, cohort "
                    "has " + std::to_string(individuals_));
  }
  const std::size_t base = buffer_.size();
  buffer_.resize(base + static_cast<std::size_t>(words_) * 2, 0);
  std::uint64_t* low = buffer_.data() + base;
  std::uint64_t* high = low + words_;
  for (std::uint32_t i = 0; i < individuals_; ++i) {
    const auto code = static_cast<std::uint32_t>(genotypes[i]);
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (code & 1u) low[i / 64] |= bit;
    if (code & 2u) high[i / 64] |= bit;
  }
  infos_.push_back(info);
  ++snps_;
  if (++buffered_ == chunk_snps_) flush_columns();
}

void PackedStoreWriter::flush_columns() {
  if (buffer_.empty()) return;
  const std::size_t bytes = buffer_.size() * sizeof(std::uint64_t);
  payload_crc_ = util::crc32(
      {reinterpret_cast<const std::uint8_t*>(buffer_.data()), bytes},
      payload_crc_);
  write_all(fd_, buffer_.data(), bytes, tmp_path_);
  buffer_.clear();
  buffered_ = 0;
}

void PackedStoreWriter::finish() {
  LDGA_EXPECTS(!finished_);
  flush_columns();

  // Metadata: statuses, then the marker table.
  std::vector<std::uint8_t> meta;
  meta.reserve(individuals_ + infos_.size() * 24);
  for (const Status s : statuses_) {
    meta.push_back(static_cast<std::uint8_t>(s));
  }
  for (const SnpInfo& info : infos_) {
    if (info.name.size() > kMaxNameBytes) {
      throw DataError("packed store: marker name '" +
                      info.name.substr(0, 32) + "…' exceeds " +
                      std::to_string(kMaxNameBytes) + " bytes");
    }
    const auto name_len = static_cast<std::uint32_t>(info.name.size());
    const std::size_t at = meta.size();
    meta.resize(at + 4 + name_len + 8);
    std::memcpy(meta.data() + at, &name_len, 4);
    std::memcpy(meta.data() + at + 4, info.name.data(), name_len);
    std::memcpy(meta.data() + at + 4 + name_len, &info.position_kb, 8);
  }
  payload_crc_ = util::crc32({meta.data(), meta.size()}, payload_crc_);
  write_all(fd_, meta.data(), meta.size(), tmp_path_);

  Header header;
  header.magic = kMagic;
  header.version = PackedGenotypeStore::kVersion;
  header.individuals = individuals_;
  header.snps = snps_;
  header.words = words_;
  header.chunk_snps = chunk_snps_;
  header.planes_offset = kPlanesOffset;
  header.planes_bytes =
      static_cast<std::uint64_t>(snps_) * words_ * 2 * sizeof(std::uint64_t);
  header.meta_bytes = meta.size();
  header.payload_crc = payload_crc_;
  std::uint8_t raw[kHeaderBytes];
  encode_header(header, raw);
  if (::pwrite(fd_, raw, kHeaderBytes, 0) !=
      static_cast<ssize_t>(kHeaderBytes)) {
    throw DataError("packed store: cannot seal header of " + tmp_path_ +
                    ": " + std::strerror(errno));
  }
  if (::fsync(fd_) != 0) {
    throw DataError("packed store: fsync of " + tmp_path_ + " failed: " +
                    std::strerror(errno));
  }
  ::close(fd_);
  fd_ = -1;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw DataError("packed store: cannot publish " + path_ + ": " +
                    std::strerror(errno));
  }
  sync_parent_directory(path_);
  finished_ = true;
}

void write_packed_store(const std::string& path, const Dataset& dataset,
                        std::uint32_t chunk_snps) {
  dataset.validate();
  PackedStoreWriter writer(path, dataset.statuses(), chunk_snps);
  std::vector<Genotype> column(dataset.individual_count());
  for (SnpIndex s = 0; s < dataset.snp_count(); ++s) {
    for (std::uint32_t i = 0; i < dataset.individual_count(); ++i) {
      column[i] = dataset.genotypes().at(i, s);
    }
    writer.add_snp(dataset.panel().info(s), column);
  }
  writer.finish();
}

}  // namespace ldga::genomics

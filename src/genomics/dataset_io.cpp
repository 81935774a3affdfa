#include "genomics/dataset_io.hpp"

#include <array>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>

#include "genomics/linkage_format.hpp"
#include "genomics/packed_store.hpp"
#include "util/error.hpp"

namespace ldga::genomics {

namespace {

char status_code(Status s) {
  switch (s) {
    case Status::Affected:
      return 'A';
    case Status::Unaffected:
      return 'U';
    case Status::Unknown:
      return '?';
  }
  return '?';
}

Status parse_status(const std::string& token) {
  if (token == "A") return Status::Affected;
  if (token == "U") return Status::Unaffected;
  if (token == "?") return Status::Unknown;
  throw DataError("dataset: unknown status token '" + token + "'");
}

std::string genotype_code(Genotype g) {
  switch (g) {
    case Genotype::HomOne:
      return "11";
    case Genotype::Het:
      return "12";
    case Genotype::HomTwo:
      return "22";
    case Genotype::Missing:
      return "00";
  }
  return "00";
}

Genotype parse_genotype(const std::string& token) {
  if (token == "11") return Genotype::HomOne;
  if (token == "12" || token == "21") return Genotype::Het;
  if (token == "22") return Genotype::HomTwo;
  if (token == "00") return Genotype::Missing;
  throw DataError("dataset: unknown genotype token '" + token + "'");
}

/// Strips comments and splits a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line.substr(0, line.find('#')));
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

}  // namespace

void write_dataset(std::ostream& out, const Dataset& dataset) {
  out << "# ldga dataset: " << dataset.individual_count() << " individuals, "
      << dataset.snp_count() << " SNPs\n";
  for (SnpIndex s = 0; s < dataset.snp_count(); ++s) {
    out << "snp " << dataset.panel().name(s) << ' '
        << dataset.panel().position_kb(s) << '\n';
  }
  for (std::uint32_t i = 0; i < dataset.individual_count(); ++i) {
    out << "ind i" << (i + 1) << ' ' << status_code(dataset.status(i));
    for (SnpIndex s = 0; s < dataset.snp_count(); ++s) {
      out << ' ' << genotype_code(dataset.genotypes().at(i, s));
    }
    out << '\n';
  }
}

Dataset read_dataset(std::istream& in) {
  std::vector<SnpInfo> snps;
  std::vector<Status> statuses;
  std::vector<std::vector<Genotype>> rows;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "snp") {
      if (!rows.empty()) {
        throw DataError("dataset: 'snp' line after individuals (line " +
                        std::to_string(line_no) + ")");
      }
      if (tokens.size() != 3) {
        throw DataError("dataset: malformed snp line " +
                        std::to_string(line_no));
      }
      snps.push_back({tokens[1], std::stod(tokens[2])});
    } else if (tokens[0] == "ind") {
      if (tokens.size() != 3 + snps.size()) {
        throw DataError("dataset: individual at line " +
                        std::to_string(line_no) + " has " +
                        std::to_string(tokens.size() - 3) +
                        " genotypes, expected " + std::to_string(snps.size()));
      }
      statuses.push_back(parse_status(tokens[2]));
      std::vector<Genotype> row;
      row.reserve(snps.size());
      for (std::size_t t = 3; t < tokens.size(); ++t) {
        row.push_back(parse_genotype(tokens[t]));
      }
      rows.push_back(std::move(row));
    } else {
      throw DataError("dataset: unknown record '" + tokens[0] + "' at line " +
                      std::to_string(line_no));
    }
  }
  if (snps.empty()) throw DataError("dataset: no markers");

  GenotypeMatrix matrix(static_cast<std::uint32_t>(rows.size()),
                        static_cast<std::uint32_t>(snps.size()));
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    for (SnpIndex s = 0; s < snps.size(); ++s) {
      matrix.set(i, s, rows[i][s]);
    }
  }
  return Dataset(SnpPanel(std::move(snps)), std::move(matrix),
                 std::move(statuses));
}

void save_dataset(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path);
  if (!out) throw DataError("dataset: cannot open '" + path + "' for writing");
  write_dataset(out, dataset);
  if (!out) throw DataError("dataset: write to '" + path + "' failed");
}

Dataset load_dataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DataError("dataset: cannot open '" + path + "'");
  return read_dataset(in);
}

Dataset Dataset::open(const std::string& path) {
  // Sniff the format by content first (magic bytes), by name second.
  std::array<char, 8> head{};
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) throw DataError("dataset: cannot open '" + path + "'");
    probe.read(head.data(), head.size());
  }
  Dataset dataset;
  if (std::string_view(head.data(), head.size()) == "LDGAPGS1") {
    dataset = PackedGenotypeStore::open(path).to_dataset();
  } else if (std::filesystem::path(path).extension() == ".ped") {
    const std::string map_path =
        std::filesystem::path(path).replace_extension(".map").string();
    dataset = load_linkage(path, map_path);
  } else {
    dataset = load_dataset(path);
  }
  dataset.validate();
  return dataset;
}

void write_frequency_table(std::ostream& out, const SnpPanel& panel,
                           const AlleleFrequencyTable& table) {
  LDGA_EXPECTS(panel.size() == table.size());
  // Full round-trip precision: these tables feed further statistics.
  out << std::setprecision(17);
  out << "# snp freq1 freq2\n";
  for (SnpIndex s = 0; s < panel.size(); ++s) {
    const auto& f = table.at(s);
    out << panel.name(s) << ' ' << f.freq_one << ' ' << f.freq_two << '\n';
  }
}

AlleleFrequencyTable read_frequency_table(std::istream& in,
                                          const SnpPanel& panel) {
  std::vector<AlleleFrequency> freqs(panel.size());
  std::vector<bool> seen(panel.size(), false);
  std::string line;
  while (std::getline(in, line)) {
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens.size() != 3) {
      throw DataError("frequency table: malformed line '" + line + "'");
    }
    const SnpIndex s = panel.index_of(tokens[0]);
    freqs[s].freq_one = std::stod(tokens[1]);
    freqs[s].freq_two = std::stod(tokens[2]);
    seen[s] = true;
  }
  for (SnpIndex s = 0; s < panel.size(); ++s) {
    if (!seen[s]) {
      throw DataError("frequency table: missing marker " + panel.name(s));
    }
  }
  return AlleleFrequencyTable(std::move(freqs));
}

void write_ld_table(std::ostream& out, const SnpPanel& panel,
                    const LdMatrix& matrix) {
  LDGA_EXPECTS(panel.size() == matrix.snp_count());
  out << std::setprecision(17);
  out << "# snp_a snp_b dprime r2\n";
  for (SnpIndex a = 0; a + 1 < panel.size(); ++a) {
    for (SnpIndex b = a + 1; b < panel.size(); ++b) {
      const auto& ld = matrix.at(a, b);
      out << panel.name(a) << ' ' << panel.name(b) << ' ' << ld.d_prime << ' '
          << ld.r2 << '\n';
    }
  }
}

LdMatrix read_ld_table(std::istream& in, const SnpPanel& panel) {
  LdMatrix matrix(panel.size());
  std::string line;
  while (std::getline(in, line)) {
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens.size() != 4) {
      throw DataError("ld table: malformed line '" + line + "'");
    }
    PairLd ld;
    ld.d_prime = std::stod(tokens[2]);
    ld.r2 = std::stod(tokens[3]);
    matrix.set(panel.index_of(tokens[0]), panel.index_of(tokens[1]), ld);
  }
  return matrix;
}

}  // namespace ldga::genomics

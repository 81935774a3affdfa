#include "ga/telemetry_writer.hpp"

#include <ostream>

#include "util/error.hpp"

namespace ldga::ga {

TelemetryCsvWriter::TelemetryCsvWriter(std::ostream& out) : out_(&out) {}

void TelemetryCsvWriter::write_header(const GenerationInfo& info) {
  *out_ << "generation";
  for (std::size_t s = 0; s < info.best_by_size.size(); ++s) {
    *out_ << ",best_size_" << s;
  }
  for (std::size_t op = 0; op < info.rates.mutation.size(); ++op) {
    *out_ << ",mutation_rate_" << op;
  }
  for (std::size_t op = 0; op < info.rates.crossover.size(); ++op) {
    *out_ << ",crossover_rate_" << op;
  }
  *out_ << ",evaluations,immigrants,cache_hits,cache_misses,"
           "cache_evictions,pattern_build_seconds,em_seconds,"
           "clump_seconds,cache_hit_ratio,mc_replicates_run,"
           "mc_replicates_saved,mc_batched_replicates\n";
  header_written_ = true;
}

namespace {

/// This generation's hit ratio; 0 when the generation had no traffic.
double ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

}  // namespace

void TelemetryCsvWriter::record(const GenerationInfo& info) {
  if (!header_written_) write_header(info);
  *out_ << info.generation;
  for (const double best : info.best_by_size) *out_ << ',' << best;
  for (const double rate : info.rates.mutation) *out_ << ',' << rate;
  for (const double rate : info.rates.crossover) *out_ << ',' << rate;
  *out_ << ',' << info.evaluations << ','
        << (info.immigrants_triggered ? 1 : 0) << ',' << info.cache_hits
        << ',' << info.cache_misses << ',' << info.cache_evictions << ','
        << info.stage_timings.pattern_build_seconds << ','
        << info.stage_timings.em_seconds << ','
        << info.stage_timings.clump_seconds << ','
        << ratio(info.gen_cache_hits, info.gen_cache_misses) << ','
        << info.mc_replicates_run << ',' << info.mc_replicates_saved << ','
        << info.mc_batched_replicates << '\n';
  ++rows_;
  if (!*out_) throw DataError("TelemetryCsvWriter: stream write failed");
}

IslandEventCsvWriter::IslandEventCsvWriter(std::ostream& out) : out_(&out) {}

void IslandEventCsvWriter::record(const IslandEvent& event) {
  if (!header_written_) {
    *out_ << "wall_seconds,event,island,haplotype_size,step,best_fitness,"
             "worst_fitness,in_flight,rate_version,evaluations\n";
    header_written_ = true;
  }
  *out_ << event.wall_seconds << ',' << to_string(event.kind) << ','
        << event.island << ',' << event.haplotype_size << ',' << event.step
        << ',' << event.best_fitness << ',' << event.worst_fitness << ','
        << event.in_flight << ',' << event.rate_version << ','
        << event.evaluations << '\n';
  ++rows_;
  if (!*out_) throw DataError("IslandEventCsvWriter: stream write failed");
}

}  // namespace ldga::ga

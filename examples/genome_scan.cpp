// Genome-scale scan: the full data path beyond the paper's 249-SNP
// "larger files" experiments. A 20,000-SNP synthetic panel is streamed
// into an on-disk packed genotype store chunk by chunk, memory-mapped
// back, swept by the composite-LD prefilter, and the top-ranked
// windows are searched by the windowed GA driver — the multipopulation
// engine runs inside each window against a column slice of the store,
// migrating elite haplotypes into overlapping windows' warm starts.
//
// Flags (defaults in brackets):
//   --concurrent-windows N    window GAs in flight at once [1]; 1 is the
//                             deterministic configuration
//   --prefilter-workers N     LD-sweep threads, the caller among them,
//                             each scoring whole windows [1; 0 = hardware]
//   --keep N                  windows that get a GA run [4; >= 1]
//   --snps N                  synthetic panel width [20000]
//   --seed S                  scan seed [3]
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/ld_prefilter.hpp"
#include "ga/window_scan.hpp"
#include "genomics/packed_store.hpp"
#include "genomics/synthetic.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace ldga;
  try {
    // --- 0. Flags, checked before anything touches the disk.
    const CliArgs args(argc, argv);
    const std::uint32_t keep = args.get_count("keep", 4);
    if (keep == 0) throw ConfigError("--keep must be >= 1");

    analysis::LdPrefilterConfig prefilter;
    prefilter.workers = args.get_count("prefilter-workers", 1);
    prefilter.validate();

    ga::WindowScanConfig scan;
    scan.concurrent_windows = args.get_count("concurrent-windows", 1);
    scan.ga.min_size = 2;
    scan.ga.max_size = 4;
    scan.ga.population_size = 60;
    scan.ga.min_subpopulation = 10;
    scan.ga.stagnation_generations = 30;
    scan.ga.max_generations = 120;
    scan.ga.seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
    scan.validate();

    genomics::SyntheticStoreConfig data;
    data.cohort.snp_count = 64;
    data.cohort.affected_count = 100;
    data.cohort.unaffected_count = 100;
    data.cohort.unknown_count = 0;
    data.cohort.active_snp_count = 3;
    data.total_snps = args.get_count("snps", 20'000);
    data.chunk_snps = 2048;

    for (const auto& unknown : args.unused()) {
      std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                   unknown.c_str());
    }

    // --- 1. Stream a synthetic panel to disk. The first 64 markers are
    // the signal chunk carrying a planted 3-SNP risk haplotype; the rest
    // are independent null LD blocks, written chunk by chunk so memory
    // stays O(chunk) however wide the panel.
    const std::string store_path =
        (std::filesystem::temp_directory_path() / "ldga_genome_scan.pgs")
            .string();
    Rng rng(11);
    Stopwatch build_watch;
    const auto written =
        genomics::write_synthetic_store(store_path, data, rng);
    std::printf("store: %u SNPs x %zu individuals -> %s (%.0f ms)\n",
                written.snps_written, written.statuses.size(),
                store_path.c_str(), build_watch.elapsed_ms());
    std::printf("planted SNPs (1-based):");
    for (const auto snp : written.truth.snps) std::printf(" %u", snp + 1);
    std::printf("\n\n");

    // --- 2. Map it back. The header seal and payload CRC are verified;
    // plane words are paged in on demand from here on.
    const auto store = genomics::PackedGenotypeStore::open(store_path);

    // --- 3. Prefilter: score every window's LD, keep the best `keep`.
    const std::vector<ga::WindowSpec> tiling =
        ga::plan_windows(store.snp_count(), 64, 48);
    Stopwatch prefilter_watch;
    const std::vector<analysis::WindowScore> scores =
        analysis::score_windows(store, tiling, prefilter);
    const std::vector<ga::WindowSpec> selected =
        analysis::top_windows(scores, keep);
    std::printf("prefilter: %zu windows scored in %.0f ms; GA budget "
                "went to:\n",
                scores.size(), prefilter_watch.elapsed_ms());
    for (const auto& window : selected) {
      std::printf("  [%6u, %6u)\n", window.begin,
                  window.begin + window.count);
    }
    std::printf("\n");

    // --- 4. Windowed GA over the survivors.
    Stopwatch scan_watch;
    const ga::WindowScanResult result = ga::run_window_scan(
        store, store.panel(), store.statuses(), selected, scan);
    std::printf("scan: %llu evaluations in %.1f s\n",
                static_cast<unsigned long long>(result.evaluations),
                scan_watch.elapsed_seconds());
    std::printf("%-18s %-26s %s\n", "window", "best haplotype (1-based)",
                "fitness");
    for (const auto& window : result.windows) {
      std::string snps;
      for (const auto snp : window.best_snps) {
        if (!snps.empty()) snps += ' ';
        snps += std::to_string(snp + 1);
      }
      std::printf("[%6u, %6u)   %-26s %.3f%s\n", window.window.begin,
                  window.window.begin + window.window.count, snps.c_str(),
                  window.best_fitness,
                  window.migrants_in > 0 ? "  (warm-started)" : "");
    }

    std::printf("\nscan champion (1-based):");
    for (const auto snp : result.best_snps) std::printf(" %u", snp + 1);
    std::printf("  fitness %.3f\n", result.best_fitness);

    std::filesystem::remove(store_path);
    return 0;
  } catch (const Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

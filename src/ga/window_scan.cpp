#include "ga/window_scan.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "genomics/dataset.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/evaluation_backend.hpp"
#include "util/error.hpp"

namespace ldga::ga {

using genomics::SnpIndex;

std::vector<WindowSpec> plan_windows(std::uint32_t snp_count,
                                     std::uint32_t window_snps,
                                     std::uint32_t stride_snps) {
  if (snp_count == 0) {
    throw ConfigError("plan_windows: empty panel");
  }
  if (window_snps < 2) {
    throw ConfigError("plan_windows: window_snps must be >= 2");
  }
  if (stride_snps == 0 || stride_snps > window_snps) {
    throw ConfigError(
        "plan_windows: stride_snps must be in [1, window_snps] — a stride "
        "beyond the window would leave unscanned gaps");
  }
  std::vector<WindowSpec> windows;
  for (std::uint32_t begin = 0;; begin += stride_snps) {
    const std::uint32_t end = std::min(begin + window_snps, snp_count);
    windows.push_back({begin, end - begin});
    if (end == snp_count) break;
  }
  return windows;
}

void WindowScanConfig::validate() const {
  ga.validate();
  evaluator.validate();
  if (concurrent_windows == 0) {
    throw ConfigError("WindowScanConfig: concurrent_windows must be >= 1");
  }
}

namespace {

/// Deterministic per-window seed: decorrelates windows while keeping
/// the whole scan a pure function of the scan seed.
std::uint64_t window_seed(std::uint64_t scan_seed, SnpIndex begin) {
  std::uint64_t state = scan_seed ^ (0x77ca1deaULL + begin);
  const std::uint64_t a = splitmix64(state);
  return splitmix64(state) ^ a;
}

/// The window's champion across size classes (engines report one best
/// individual per subpopulation).
const HaplotypeIndividual* champion(
    const std::vector<HaplotypeIndividual>& best_by_size) {
  const HaplotypeIndividual* best = nullptr;
  for (const HaplotypeIndividual& individual : best_by_size) {
    if (individual.size() == 0 || !individual.evaluated()) continue;
    if (best == nullptr || individual.fitness() > best->fitness()) {
      best = &individual;
    }
  }
  return best;
}

bool windows_overlap(const WindowSpec& a, const WindowSpec& b) {
  return a.begin < b.begin + b.count && b.begin < a.begin + a.count;
}

/// An elite awaiting migration: global SNP set, its fitness, and the
/// scan position of the window that produced it.
struct EliteRecord {
  double fitness = 0.0;
  std::vector<SnpIndex> snps;
  std::uint32_t source = 0;
};

/// Fills `ga.warm_starts` from the donor pool: best-first (stable, so
/// ties keep the pool's order), only elites that fall entirely inside
/// the window and within the clamped size range, re-indexed to
/// window-local coordinates. Returns how many were accepted and
/// records the distinct contributing scan positions.
std::uint32_t migrate_into(GaConfig& ga, const WindowSpec& window,
                           std::vector<EliteRecord> donors,
                           std::uint32_t migrate_elites,
                           std::vector<std::uint32_t>& donor_windows) {
  ga.warm_starts.clear();
  std::uint32_t migrants = 0;
  std::stable_sort(donors.begin(), donors.end(),
                   [](const EliteRecord& a, const EliteRecord& b) {
                     return a.fitness > b.fitness;
                   });
  for (const EliteRecord& elite : donors) {
    if (migrants >= migrate_elites) break;
    const bool inside = std::all_of(
        elite.snps.begin(), elite.snps.end(), [&](SnpIndex s) {
          return s >= window.begin && s < window.begin + window.count;
        });
    if (!inside || elite.snps.size() < ga.min_size ||
        elite.snps.size() > ga.max_size) {
      continue;
    }
    std::vector<SnpIndex> local(elite.snps.size());
    std::transform(elite.snps.begin(), elite.snps.end(), local.begin(),
                   [&](SnpIndex s) { return s - window.begin; });
    ga.warm_starts.push_back(std::move(local));
    ++migrants;
    if (std::find(donor_windows.begin(), donor_windows.end(), elite.source) ==
        donor_windows.end()) {
      donor_windows.push_back(elite.source);
    }
  }
  std::sort(donor_windows.begin(), donor_windows.end());
  return migrants;
}

std::vector<EliteRecord> harvest_elites(
    const std::vector<HaplotypeIndividual>& best_by_size,
    const WindowSpec& window, std::uint32_t source) {
  std::vector<EliteRecord> elites;
  for (const HaplotypeIndividual& individual : best_by_size) {
    if (individual.size() == 0 || !individual.evaluated()) continue;
    std::vector<SnpIndex> global(individual.snps().size());
    std::transform(individual.snps().begin(), individual.snps().end(),
                   global.begin(),
                   [&](SnpIndex s) { return window.begin + s; });
    elites.push_back({individual.fitness(), std::move(global), source});
  }
  return elites;
}

/// A finished window's contribution to later claims.
struct FinishedWindow {
  WindowSpec window;
  std::vector<EliteRecord> elites;
};

/// The one scan loop. Workers claim windows in list order under
/// `mutex`; a claim's donors are the elites of every overlapping window
/// finished by then. The first error stops further claims and is
/// rethrown once every worker has joined.
struct Scheduler {
  Scheduler(const genomics::GenotypeStore& scan_store,
            const genomics::SnpPanel& scan_panel,
            std::span<const genomics::Status> scan_statuses,
            std::span<const WindowSpec> scan_windows,
            const WindowScanConfig& scan_config)
      : store(scan_store),
        panel(scan_panel),
        statuses(scan_statuses),
        windows(scan_windows),
        config(scan_config),
        pool(parallel::make_worker_pool(config.eval_workers)),
        results(windows.size()) {}

  WindowScanResult run() {
    // The caller is a worker too, so one window in flight starts no
    // thread.
    const std::size_t workers =
        std::min<std::size_t>(config.concurrent_windows, windows.size());
    {
      std::vector<std::jthread> threads;
      for (std::size_t i = 1; i < workers; ++i) {
        threads.emplace_back([this] { worker_loop(); });
      }
      worker_loop();
    }  // joins every worker
    if (error != nullptr) std::rethrow_exception(error);

    WindowScanResult scan;
    scan.windows.reserve(results.size());
    // Champion chosen by walking scan order, so the pick cannot depend
    // on which window happened to finish first.
    for (std::optional<WindowResult>& result : results) {
      LDGA_EXPECTS(result.has_value());
      scan.evaluations += result->evaluations;
      if (!result->best_snps.empty() &&
          (scan.best_snps.empty() ||
           result->best_fitness > scan.best_fitness)) {
        scan.best_fitness = result->best_fitness;
        scan.best_snps = result->best_snps;
      }
      scan.windows.push_back(std::move(*result));
    }
    return scan;
  }

  void worker_loop() {
    try {
      for (;;) {
        std::size_t index = 0;
        std::vector<EliteRecord> donors;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (aborted || next == windows.size()) return;
          index = next++;
          // Donors: every overlapping window already finished at claim
          // time, in completion order (which migrate_into's stable sort
          // preserves across equal fitness) — the record that makes a
          // concurrent scan's migration deterministic given completion
          // order.
          for (const FinishedWindow& done : finished) {
            if (!windows_overlap(done.window, windows[index])) continue;
            donors.insert(donors.end(), done.elites.begin(),
                          done.elites.end());
          }
        }
        // Page the claimed window in first, then hint the next unclaimed
        // one so an mmap'd store streams it in off the critical path.
        store.prefetch_loci(windows[index].begin, windows[index].count);
        if (index + 1 < windows.size()) {
          store.prefetch_loci(windows[index + 1].begin,
                              windows[index + 1].count);
        }
        run_window(static_cast<std::uint32_t>(index), std::move(donors));
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (error == nullptr) error = std::current_exception();
      aborted = true;
    }
  }

  void run_window(std::uint32_t index, std::vector<EliteRecord> donors) {
    const WindowSpec& window = windows[index];
    // The window's slice becomes a self-contained small Dataset — the
    // mmap'd store only pages in these loci's plane words.
    const genomics::Dataset window_data = genomics::materialize_window(
        store, panel, statuses, window.begin, window.count);
    const stats::HaplotypeEvaluator evaluator(window_data, config.evaluator);

    GaConfig ga = config.ga;
    ga.seed = window_seed(config.ga.seed, window.begin);
    // The engine's search space is the window; clamp the size range to
    // it (run_window_scan checked that the window exceeds min_size).
    ga.max_size = std::min(ga.max_size, window.count - 1);

    WindowResult out;
    out.window = window;
    out.migrants_in = migrate_into(ga, window, std::move(donors),
                                   config.migrate_elites, out.donor_windows);

    std::shared_ptr<stats::EvaluationBackend> backend;
    if (pool != nullptr) {
      stats::BackendOptions options;
      options.pool = pool;
      backend = stats::make_thread_pool_backend(evaluator, options);
    }
    GaEngine engine(evaluator, ga, std::move(backend));
    const GaResult result = engine.run();
    out.generations = result.generations;
    out.evaluations = result.evaluations;

    if (const HaplotypeIndividual* best = champion(result.best_by_size)) {
      out.best_fitness = best->fitness();
      out.best_snps.resize(best->snps().size());
      std::transform(best->snps().begin(), best->snps().end(),
                     out.best_snps.begin(),
                     [&](SnpIndex s) { return window.begin + s; });
    }

    std::vector<EliteRecord> elites =
        harvest_elites(result.best_by_size, window, index);
    {
      std::lock_guard<std::mutex> lock(mutex);
      out.completion_rank = completions++;
      finished.push_back({window, std::move(elites)});
      results[index] = std::move(out);
    }
  }

  const genomics::GenotypeStore& store;
  const genomics::SnpPanel& panel;
  std::span<const genomics::Status> statuses;
  std::span<const WindowSpec> windows;
  const WindowScanConfig& config;
  /// The scan-wide evaluation pool, spun up once so no window pays
  /// pool setup; null when eval_workers resolves to 1, where each
  /// window's serial backend scores on the window's own thread.
  std::shared_ptr<parallel::ThreadPool> pool;

  std::mutex mutex;
  std::size_t next = 0;                     ///< next window to claim
  std::vector<FinishedWindow> finished;     ///< completion order
  std::vector<std::optional<WindowResult>> results;  ///< scan order
  std::uint32_t completions = 0;
  bool aborted = false;
  std::exception_ptr error;
};

}  // namespace

WindowScanResult run_window_scan(const genomics::GenotypeStore& store,
                                 const genomics::SnpPanel& panel,
                                 std::span<const genomics::Status> statuses,
                                 std::span<const WindowSpec> windows,
                                 const WindowScanConfig& config) {
  config.validate();
  LDGA_EXPECTS(panel.size() == store.snp_count());
  LDGA_EXPECTS(statuses.size() == store.individual_count());
  for (const WindowSpec& window : windows) {
    LDGA_EXPECTS(window.begin < store.snp_count() && window.count >= 2 &&
                 window.count <= store.snp_count() - window.begin);
    // The engine needs at least one spare SNP for mutation, so a window
    // must exceed min_size.
    LDGA_EXPECTS(window.count > config.ga.min_size);
  }
  if (windows.empty()) return {};
  return Scheduler(store, panel, statuses, windows, config).run();
}

}  // namespace ldga::ga

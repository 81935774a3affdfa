// The benchmark's workloads. Each one generates its inputs from the
// workload seed, then solves them repeatedly through the ldga libraries'
// public functions, timing from outside; see README.md for why each
// workload exists and what every metric means.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace ldga::benchmark {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// About a tenth of the full size, for the quick self-check.
  bool smoke = false;
  /// Where generated input files live while the run lasts.
  std::string scratch_dir;
};

/// What one solve produced. Layer values are filled by traced solves
/// only, under names from per_layer_metric_names().
struct SolveRecord {
  std::uint32_t input = 0;  ///< which generated input was solved
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t evaluations = 0;  ///< pipeline evaluations attempted
  std::uint64_t failed = 0;       ///< failed evaluations + dropped offspring
  double best_fitness_sum = 0.0;
  /// Share of the solve's wall time the recorded layer spans cover
  /// (traced solves only).
  double span_coverage = 0.0;
  std::vector<std::pair<std::string, double>> layers;
};

/// A correctness gate failed: the run's outputs are wrong.
class GateFailure : public std::exception {
 public:
  explicit GateFailure(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generated inputs; solves cycle through them in rounds.
  virtual std::uint32_t input_count() const = 0;

  /// Solves input `input` once. With a trace, records layer spans and
  /// fills the record's per-layer values.
  virtual SolveRecord solve(std::uint32_t input, Trace* trace) = 0;

  /// Untimed correctness gates over every solve made so far. Throws
  /// GateFailure naming the first mismatch.
  virtual void check() = 0;

  /// Sizes and settings, as a JSON object, for the results file.
  virtual std::string describe_json() const = 0;
};

std::span<const std::string_view> workload_names();

/// Builds the named workload and writes its inputs. Throws ConfigError
/// for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadOptions& options);

/// Every per-layer metric, with its unit, in report order.
std::span<const std::pair<std::string_view, std::string_view>>
per_layer_metric_names();

}  // namespace ldga::benchmark

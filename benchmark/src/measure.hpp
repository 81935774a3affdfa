// Measurement primitives of the repository benchmark: process resource
// samples, order statistics, the in-memory span trace and the popcount
// peak probe. Everything here observes the ldga libraries from outside;
// nothing is compiled into them.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ldga::benchmark {

/// Wall clock plus getrusage(RUSAGE_SELF) counters at one instant. CPU
/// time sums every thread of the process.
struct Usage {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t minor_faults = 0;
  std::int64_t major_faults = 0;

  static Usage now();
  Usage operator-(const Usage& earlier) const;
  double cpu_per_wall() const { return wall_s > 0.0 ? cpu_s / wall_s : 0.0; }
};

/// Peak resident set of this process so far (ru_maxrss), in MiB.
double peak_rss_mb();

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One named measurement as printed and serialized.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Spans and instant events at the layer boundaries the benchmark calls
/// across, kept in memory and written out as Chrome trace-event JSON
/// when the run ends. Thread-safe: island callbacks arrive from island
/// threads.
class Trace {
 public:
  Trace();

  /// Microseconds since the trace was created.
  double now_us() const;

  void span(std::string name, double begin_us, double end_us,
            std::string args = {});
  void instant(std::string name, double at_us, std::string args = {});

  /// Sum of the durations of every span called `name`, in seconds.
  double total_seconds(std::string_view name) const;
  /// Durations of every span called `name`, in milliseconds.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Appends this trace's events as one process (`pid`) of a Chrome
  /// trace-event array; `first` tracks the separating commas.
  void append_chrome_events(std::string& out, std::uint32_t pid,
                            bool& first) const;

 private:
  struct Event {
    std::string name;
    char phase = 'X';
    double ts_us = 0.0;
    double dur_us = 0.0;
    std::uint32_t tid = 0;
    std::string args;  ///< JSON object body, without braces
  };

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Records [construction, close() or destruction) as a span; no-op
/// without a trace.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, std::string args = {});
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now; later calls do nothing.
  void close();

 private:
  Trace* trace_;
  std::string name_;
  std::string args_;
  double begin_us_ = 0.0;
};

/// Peak rate of the fused AND-popcount kernel (util::SimdKernels::
/// combine_planes_count) on L1-resident buffers of `words` words, in
/// plane words per second — the ceiling the prefilter sweep's achieved
/// rate is compared against.
double popcount_peak_words_per_s(std::uint32_t words);

/// CPU model, core count, SIMD dispatch and compiler as a JSON object.
std::string machine_context_json();

/// Shortest round-trip decimal form of a double (JSON-safe for finite
/// values).
std::string format_double(double value);

}  // namespace ldga::benchmark

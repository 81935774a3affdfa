#include "measure.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace ldga::benchmark {

namespace {

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Small dense thread ids for the trace viewer's rows.
std::uint32_t trace_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
  while (!model.empty() && model.front() == ' ') model.erase(model.begin());
  while (!model.empty() && model.back() == ' ') model.pop_back();
  for (char& c : model) {
    if (c == '"' || c == '\\') c = ' ';
  }
  return model.empty() ? "unknown" : model;
#else
  return "unknown";
#endif
}

}  // namespace

Usage Usage::now() {
  Usage usage;
  usage.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.cpu_s = seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
    usage.minor_faults = ru.ru_minflt;
    usage.major_faults = ru.ru_majflt;
  }
  return usage;
}

Usage Usage::operator-(const Usage& earlier) const {
  Usage delta;
  delta.wall_s = wall_s - earlier.wall_s;
  delta.cpu_s = cpu_s - earlier.cpu_s;
  delta.minor_faults = minor_faults - earlier.minor_faults;
  delta.major_faults = major_faults - earlier.major_faults;
  return delta;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB → MiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Trace::Trace() : origin_(std::chrono::steady_clock::now()) {}

double Trace::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Trace::span(std::string name, double begin_us, double end_us,
                 std::string args) {
  const std::uint32_t tid = trace_thread_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({std::move(name), 'X', begin_us, end_us - begin_us, tid,
                     std::move(args)});
}

void Trace::instant(std::string name, double at_us, std::string args) {
  const std::uint32_t tid = trace_thread_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({std::move(name), 'i', at_us, 0.0, tid, std::move(args)});
}

double Trace::total_seconds(std::string_view name) const {
  double total_us = 0.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Event& event : events_) {
    if (event.phase == 'X' && event.name == name) total_us += event.dur_us;
  }
  return total_us * 1e-6;
}

std::vector<double> Trace::durations_ms(std::string_view name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Event& event : events_) {
    if (event.phase == 'X' && event.name == name) {
      out.push_back(event.dur_us * 1e-3);
    }
  }
  return out;
}

void Trace::append_chrome_events(std::string& out, std::uint32_t pid,
                                 bool& first) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Event& event : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":\"" + event.name + "\",\"ph\":\"";
    out += event.phase;
    out += "\",\"ts\":" + format_double(event.ts_us);
    if (event.phase == 'X') out += ",\"dur\":" + format_double(event.dur_us);
    if (event.phase == 'i') out += ",\"s\":\"t\"";
    out += ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(event.tid) + ",\"args\":{" +
           event.args + "}}";
  }
}

ScopedSpan::ScopedSpan(Trace* trace, std::string name, std::string args)
    : trace_(trace), name_(std::move(name)), args_(std::move(args)) {
  if (trace_ != nullptr) begin_us_ = trace_->now_us();
}

void ScopedSpan::close() {
  if (trace_ == nullptr) return;
  trace_->span(std::move(name_), begin_us_, trace_->now_us(),
               std::move(args_));
  trace_ = nullptr;
}

double popcount_peak_words_per_s(std::uint32_t words) {
  const util::SimdKernels& kernels = util::simd();
  std::vector<std::uint64_t> parent(words), lo(words), hi(words), out(words);
  for (std::uint32_t w = 0; w < words; ++w) {
    parent[w] = 0x9e3779b97f4a7c15ULL * (w + 1);
    lo[w] = 0xc2b2ae3d27d4eb4fULL ^ parent[w];
    hi[w] = 0x165667b19e3779f9ULL + parent[w];
  }
  constexpr std::uint32_t kCalls = 20'000;
  std::uint64_t sink = 0;
  double best = 0.0;
  // Best of several ~10 ms trials: the ceiling, not the typical rate.
  for (int trial = 0; trial < 5; ++trial) {
    const Stopwatch watch;
    std::uint64_t calls = 0;
    do {
      for (std::uint32_t i = 0; i < kCalls; ++i) {
        sink += kernels.combine_planes_count(parent.data(), lo.data(),
                                             hi.data(), 0, 0, words,
                                             out.data());
      }
      calls += kCalls;
    } while (watch.elapsed_seconds() < 0.01);
    best = std::max(best, static_cast<double>(calls) *
                              static_cast<double>(words) /
                              watch.elapsed_seconds());
  }
  // The kernel is an indirect call, so the loop cannot be elided; the
  // sink check keeps its result observably used all the same.
  return sink == 0xffffffffffffffffULL ? 0.0 : best;
}

std::string machine_context_json() {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return "{\"cpu\":\"" + cpu_model() +
         "\",\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"llc_bytes\":" + std::to_string(llc > 0 ? llc : 0) +
         ",\"simd_detected\":\"" +
         util::simd_level_name(util::simd_detected_level()) +
         "\",\"simd_active\":\"" + util::simd_level_name(util::simd_level()) +
         "\",\"compiler\":\"" + __VERSION__ + "\"}";
}

std::string format_double(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

}  // namespace ldga::benchmark

// Repository benchmark program: one workload per process.
//
//   ldga_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                  [--reps R] [--smoke] [--out DIR]
//
// Generates the workload's inputs from the seed, makes one untimed
// warm-up solve, then solves the inputs in turn for at least S seconds
// and until each input was solved R times (default 2, so the
// repeatability gate sees every input twice). With --trace 0 every
// solve is untraced and each end-to-end metric is the mean over inputs
// of the input's median. With --trace 1 each untraced solve is followed
// by a traced solve of the same input; the per-layer metrics are
// medians over the traced solves and trace.overhead compares each pair.
// Correctness gates run after timing. Prints `workload metric value
// unit` lines, then one JSON result line; writes the results (with
// machine context) and, when traced, a Chrome trace under DIR.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace {

using namespace ldga;
using namespace ldga::benchmark;

std::string metrics_json(const std::vector<Metric>& metrics,
                         std::size_t samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name +
           "\":{\"value\":" + format_double(metrics[i].value) +
           ",\"unit\":\"" + metrics[i].unit + "\"";
    if (samples > 0) out += ",\"samples\":" + std::to_string(samples);
    out += "}";
  }
  return out + "}";
}

std::vector<double> column(const std::vector<SolveRecord>& solves,
                           double (*field)(const SolveRecord&)) {
  std::vector<double> values;
  values.reserve(solves.size());
  for (const SolveRecord& solve : solves) values.push_back(field(solve));
  return values;
}

/// Mean over inputs of each input's median: inputs differ in cost and
/// in the fitness they allow, so a run weighs each one equally.
double input_mean(const std::vector<SolveRecord>& solves,
                  double (*field)(const SolveRecord&)) {
  std::map<std::uint32_t, std::vector<double>> by_input;
  for (const SolveRecord& solve : solves) {
    by_input[solve.input].push_back(field(solve));
  }
  double sum = 0.0;
  for (const auto& [input, values] : by_input) sum += median(values);
  return by_input.empty() ? 0.0 : sum / static_cast<double>(by_input.size());
}

std::vector<Metric> end_to_end_metrics(const std::vector<SolveRecord>& solves,
                                       double peak_rss) {
  return {
      {"setup_s",
       input_mean(solves, [](const SolveRecord& s) { return s.setup_s; }),
       "s"},
      {"wall_s",
       input_mean(solves, [](const SolveRecord& s) { return s.wall_s; }), "s"},
      {"evals_per_s", input_mean(solves,
                                 [](const SolveRecord& s) {
                                   return static_cast<double>(s.evaluations) /
                                          s.wall_s;
                                 }),
       "1/s"},
      {"best_fitness_sum", input_mean(solves,
                                      [](const SolveRecord& s) {
                                        return s.best_fitness_sum;
                                      }),
       "chi2"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<SolveRecord>& traced,
                                      const std::vector<SolveRecord>& untraced) {
  std::map<std::string, std::vector<double>> samples;
  for (const SolveRecord& solve : traced) {
    for (const auto& [name, value] : solve.layers) {
      samples[name].push_back(value);
    }
  }
  const auto known = per_layer_metric_names();
  for (const auto& [name, values] : samples) {
    if (std::none_of(known.begin(), known.end(),
                     [&](const auto& entry) { return entry.first == name; })) {
      throw ConfigError("undeclared per-layer metric '" + name + "'");
    }
  }
  // Solves alternate untraced/traced on the same input, so each traced
  // solve has an untraced partner at the same index.
  std::vector<double> overheads;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    overheads.push_back(traced[i].wall_s / untraced[i].wall_s - 1.0);
  }
  samples["trace.overhead"] = {median(overheads)};
  samples["trace.coverage"] =
      column(traced, [](const SolveRecord& s) { return s.span_coverage; });

  // A layer a workload never reaches reports 0 (README.md lists which).
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : known) {
    const auto it = samples.find(std::string(name));
    metrics.push_back({std::string(name),
                       it == samples.end() ? 0.0 : median(it->second),
                       std::string(unit)});
  }
  return metrics;
}

std::string solves_json(const std::vector<SolveRecord>& solves) {
  std::string out = "[";
  for (std::size_t i = 0; i < solves.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"input\":" + std::to_string(solves[i].input) +
           ",\"setup_s\":" + format_double(solves[i].setup_s) +
           ",\"wall_s\":" + format_double(solves[i].wall_s) +
           ",\"cpu_s\":" + format_double(solves[i].cpu_s) +
           ",\"evaluations\":" + std::to_string(solves[i].evaluations) +
           ",\"best_fitness_sum\":" + format_double(solves[i].best_fitness_sum) +
           "}";
  }
  return out + "]";
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw Error("cannot write " + path.string());
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !ok) {
    throw Error("cannot write " + path.string());
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  const std::string name = args.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 20.0);
  const std::int64_t trace_flag = args.get_int("trace", 0);
  const bool smoke = args.get_bool("smoke");
  const std::int64_t min_solves =
      std::max<std::int64_t>(args.get_int("reps", 2), 1);
  const std::filesystem::path out_dir = args.get("out", "benchmark/out");
  if (const auto unused = args.unused(); !unused.empty()) {
    throw ConfigError("unknown flag --" + unused.front());
  }
  if (trace_flag != 0 && trace_flag != 1) {
    throw ConfigError("--trace takes 0 or 1");
  }
  const bool tracing = trace_flag == 1;

  WorkloadOptions options;
  options.seed = seed;
  options.smoke = smoke;
  options.scratch_dir = (out_dir / "tmp").string();
  for (const char* sub : {"tmp", "results", "traces"}) {
    std::filesystem::create_directories(out_dir / sub);
  }
  const std::unique_ptr<Workload> workload = make_workload(name, options);

  workload->solve(0, nullptr);  // warm-up: caches, page cache, allocator

  std::vector<SolveRecord> untraced;
  std::vector<SolveRecord> traced;
  std::vector<std::unique_ptr<Trace>> traces;
  const std::int64_t inputs = workload->input_count();
  const std::int64_t solves_per_step = tracing ? 2 : 1;
  const std::int64_t min_steps =
      inputs * ((min_solves + solves_per_step - 1) / solves_per_step);
  const Stopwatch clock;
  for (std::int64_t step = 0;; ++step) {
    const auto input = static_cast<std::uint32_t>(step % inputs);
    untraced.push_back(workload->solve(input, nullptr));
    if (tracing) {
      traces.push_back(std::make_unique<Trace>());
      traced.push_back(workload->solve(input, traces.back().get()));
    }
    if (step + 1 >= min_steps && clock.elapsed_seconds() >= seconds) break;
  }
  const double peak_rss = peak_rss_mb();

  bool correct = true;
  std::string gate_error;
  try {
    workload->check();
  } catch (const GateFailure& failure) {
    correct = false;
    gate_error = failure.what();
    std::fprintf(stderr, "GATE FAILED: %s\n", failure.what());
  }

  const std::vector<SolveRecord>& reported = tracing ? traced : untraced;
  const std::vector<Metric> metrics =
      tracing ? per_layer_metrics(traced, untraced)
              : end_to_end_metrics(untraced, peak_rss);
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      throw Error("metric " + metric.name + " is not finite");
    }
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const std::vector<SolveRecord>* solves : {&untraced, &traced}) {
    for (const SolveRecord& solve : *solves) {
      attempted += solve.evaluations;
      failed += solve.failed;
    }
  }

  const std::string stem = name + "-seed" + std::to_string(seed) +
                           (smoke ? "-smoke" : "") + "-trace" +
                           std::to_string(trace_flag);
  std::string results =
      "{\"workload\":\"" + name + "\",\"seed\":" + std::to_string(seed) +
      ",\"trace\":" + std::to_string(trace_flag) +
      ",\"smoke\":" + (smoke ? "true" : "false") +
      ",\"seconds\":" + format_double(seconds) +
      ",\"machine\":" + machine_context_json() +
      ",\"config\":" + workload->describe_json() +
      ",\"correct\":" + (correct ? "true" : "false") + ",\"gate_error\":\"";
  for (const char c : gate_error) {  // kept JSON-safe without escapes
    results += c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20
                   ? ' '
                   : c;
  }
  results += "\",\"attempted\":" + std::to_string(attempted) +
             ",\"failed\":" + std::to_string(failed) +
             ",\"metrics\":" + metrics_json(metrics, reported.size()) +
             ",\"untraced_solves\":" + solves_json(untraced) +
             ",\"traced_solves\":" + solves_json(traced) + "}\n";
  write_file(out_dir / "results" / (stem + ".json"), results);
  if (tracing) {
    std::string chrome = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      traces[i]->append_chrome_events(chrome, static_cast<std::uint32_t>(i),
                                      first);
    }
    chrome += "\n]}\n";
    write_file(out_dir / "traces" / (name + "-seed" + std::to_string(seed) +
                                     (smoke ? "-smoke" : "") + ".json"),
               chrome);
  }

  for (const Metric& metric : metrics) {
    std::printf("%s %s %s %s\n", name.c_str(), metric.name.c_str(),
                format_double(metric.value).c_str(), metric.unit.c_str());
  }
  std::printf("%s samples %zu untraced %zu traced\n", name.c_str(),
              untraced.size(), traced.size());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics, 0).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
} catch (const std::exception& error) {
  std::fprintf(stderr, "ldga_benchmark: %s\n", error.what());
  return 2;
}

// CSV writers for GA telemetry.
//
// TelemetryCsvWriter is the synchronous engine's per-generation record
// (operator-rate trajectories, per-size bests, evaluation budget,
// immigrant waves); it plugs into GaEngine::set_generation_callback.
// Its stage columns are the evaluator's cumulative StageTimings:
// em_seconds times the EM runs each evaluation made — two per T1–T4
// fitness, three per Lrt or strict-mode fitness.
//
// IslandEventCsvWriter is the asynchronous engine's counterpart: the
// island engine has no generations to summarize, so telemetry is
// event-based — one row per island event (initialization, improvement,
// migration, immigrant wave, checkpoint), stamped with wall time and
// the island's local step counter. Plugs into
// IslandEngine::set_event_callback.
#pragma once

#include <functional>
#include <iosfwd>

#include "ga/engine.hpp"
#include "ga/island_engine.hpp"

namespace ldga::ga {

class TelemetryCsvWriter {
 public:
  /// Writes to `out`, which must outlive the writer. The header row is
  /// emitted on the first record (column count depends on the number of
  /// subpopulations and operators).
  explicit TelemetryCsvWriter(std::ostream& out);

  void record(const GenerationInfo& info);

  /// Convenience adapter for GaEngine::set_generation_callback.
  /// The writer must outlive the engine run.
  std::function<void(const GenerationInfo&)> callback() {
    return [this](const GenerationInfo& info) { record(info); };
  }

  std::uint64_t rows_written() const { return rows_; }

 private:
  void write_header(const GenerationInfo& info);

  std::ostream* out_;
  bool header_written_ = false;
  std::uint64_t rows_ = 0;
};

/// One CSV row per island event. Columns are fixed (no per-run shape),
/// so files from runs with different size ranges concatenate cleanly.
class IslandEventCsvWriter {
 public:
  /// Writes to `out`, which must outlive the writer. The header row is
  /// emitted on the first record.
  explicit IslandEventCsvWriter(std::ostream& out);

  void record(const IslandEvent& event);

  /// Convenience adapter for IslandEngine::set_event_callback. The
  /// writer must outlive the engine run. The engine serializes
  /// callback invocations, so the writer needs no lock of its own.
  std::function<void(const IslandEvent&)> callback() {
    return [this](const IslandEvent& event) { record(event); };
  }

  std::uint64_t rows_written() const { return rows_; }

 private:
  std::ostream* out_;
  bool header_written_ = false;
  std::uint64_t rows_ = 0;
};

}  // namespace ldga::ga

// Transport-layer cost study: what the farm pays for moving its
// messages through each transport, and what the cross-process
// fault-tolerance machinery costs when it is actually exercised.
//
// Sections, echoed to stdout and recorded in BENCH_transport.json:
//   1. frame codec  — encode+decode throughput for farm-sized payloads;
//   2. round trip   — single ping/pong latency per transport;
//   3. farm phases  — generation-sized evaluation batches through the
//      same MasterSlaveFarm over the in-process and socket transports
//      (the socket overhead is the price of real process isolation — it
//      must stay small next to the evaluation cost);
//   4. chaos        — the socket farm re-run with injected kills and
//      corrupt frames, measuring what recovery adds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_context.hpp"
#include "genomics/synthetic.hpp"
#include "stats/evaluator.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/frame.hpp"
#include "parallel/master_slave.hpp"
#include "parallel/socket_transport.hpp"
#include "parallel/transport.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table_format.hpp"

namespace {

using namespace ldga;
using parallel::FrameDecoder;
using parallel::MasterSlaveFarm;
using parallel::Message;
using parallel::Packer;
using parallel::TransportFactory;

constexpr std::int32_t kPing = 1;
constexpr std::int32_t kQuit = 2;

void report_frame_codec(std::FILE* json) {
  // A farm work message is a few dozen bytes; a result is smaller.
  Message message;
  message.source = 3;
  message.tag = kPing;
  message.payload.assign(64, 0xa5);
  constexpr int kFrames = 200000;

  Stopwatch watch;
  FrameDecoder decoder;
  std::uint64_t decoded = 0;
  for (int i = 0; i < kFrames; ++i) {
    const auto frame = parallel::encode_frame(message);
    decoder.feed(frame.data(), frame.size());
    while (decoder.next()) ++decoded;
  }
  const double seconds = watch.elapsed_seconds();
  const double per_frame_us = 1e6 * seconds / kFrames;
  std::printf("frame codec: %d x 64-byte payloads encode+decode in %.3f s "
              "(%.2f us/frame, %llu decoded)\n\n",
              kFrames, seconds, per_frame_us,
              static_cast<unsigned long long>(decoded));
  std::fprintf(json, "  \"frame_codec_us_per_frame\": %.4f,\n",
               per_frame_us);
}

/// One worker that doubles an i32 until told to quit.
parallel::Transport::WorkerBody echo_body() {
  return [](parallel::WorkerChannel& channel) {
    for (;;) {
      Message message;
      try {
        message = channel.receive_from_master();
      } catch (const parallel::TransportClosed&) {
        return;
      }
      if (message.tag == kQuit) return;
      Packer reply;
      reply.pack(message.unpacker().unpack<std::int32_t>() * 2);
      channel.send_to_master(kPing, std::move(reply));
    }
  };
}

double round_trip_us(parallel::Transport& transport, int round_trips) {
  const auto worker = transport.spawn_worker();
  // Warm-up exchange (forks, connects, and faults in the first page).
  Packer warm;
  warm.pack<std::int32_t>(1);
  transport.send_to_worker(worker, kPing, std::move(warm));
  (void)transport.receive();

  Stopwatch watch;
  for (int i = 0; i < round_trips; ++i) {
    Packer ping;
    ping.pack<std::int32_t>(i);
    transport.send_to_worker(worker, kPing, std::move(ping));
    (void)transport.receive();  // the echo: nothing else is in flight
  }
  const double us = 1e6 * watch.elapsed_seconds() / round_trips;
  transport.send_to_worker(worker, kQuit, Packer{});
  return us;
}

void report_round_trips(std::FILE* json) {
  constexpr int kRoundTrips = 2000;
  std::printf("--- single-message round trip (%d iterations) ---\n",
              kRoundTrips);
  TextTable table({"transport", "round trip (us)"});

  const auto in_process = parallel::make_in_process_transport(echo_body());
  const double in_process_us = round_trip_us(*in_process, kRoundTrips);
  table.add_row({"in-process", TextTable::num(in_process_us, 2)});

  const auto socket_transport = parallel::make_socket_transport(echo_body());
  const double socket_us = round_trip_us(*socket_transport, kRoundTrips);
  table.add_row({"socket", TextTable::num(socket_us, 2)});

  std::printf("%s\n", table.str().c_str());
  std::fprintf(json,
               "  \"round_trip_us\": {\"in_process\": %.3f, "
               "\"socket\": %.3f},\n",
               in_process_us, socket_us);
}

struct FarmRun {
  double phase_seconds = 0.0;
  parallel::FarmStats stats;
};

FarmRun run_farm_phases(
    const stats::HaplotypeEvaluator& evaluator,
    const std::vector<std::vector<genomics::SnpIndex>>& batch,
    TransportFactory factory,
    std::shared_ptr<parallel::FaultInjector> injector = nullptr,
    parallel::FarmPolicy policy = {}) {
  const auto worker = [&evaluator](const std::vector<genomics::SnpIndex>& s) {
    return evaluator.evaluate_full(s).fitness;
  };
  MasterSlaveFarm<std::vector<genomics::SnpIndex>, double> farm(
      4, worker, policy, std::move(injector), std::move(factory));
  farm.run(batch);  // warm-up
  constexpr int kPhases = 3;
  Stopwatch watch;
  for (int phase = 0; phase < kPhases; ++phase) {
    benchmark::DoNotOptimize(farm.run(batch));
  }
  FarmRun result;
  result.phase_seconds = watch.elapsed_seconds() / kPhases;
  result.stats = farm.stats();
  return result;
}

void report_farm(std::FILE* json) {
  genomics::SyntheticConfig data_config;
  data_config.snp_count = 51;
  data_config.affected_count = 53;
  data_config.unaffected_count = 53;
  data_config.unknown_count = 0;
  Rng data_rng(65);
  const auto synthetic = genomics::generate_synthetic(data_config, data_rng);
  const stats::HaplotypeEvaluator evaluator(synthetic.dataset);

  Rng rng(7);
  std::vector<std::vector<genomics::SnpIndex>> batch;
  for (int i = 0; i < 96; ++i) {
    batch.push_back(rng.sample_without_replacement(51, 4));
  }

  std::printf("--- evaluation farm, 4 slaves, %zu-task phases ---\n",
              batch.size());
  TextTable table({"transport", "phase (s)", "vs in-process"});

  const FarmRun in_process = run_farm_phases(
      evaluator, batch, parallel::in_process_transport_factory());
  table.add_row({"in-process", TextTable::num(in_process.phase_seconds, 4),
                 TextTable::num(1.0, 2)});

  const FarmRun socket_run = run_farm_phases(
      evaluator, batch, parallel::socket_transport_factory());
  table.add_row({"socket", TextTable::num(socket_run.phase_seconds, 4),
                 TextTable::num(
                     socket_run.phase_seconds / in_process.phase_seconds,
                     2)});
  std::printf("%s\n", table.str().c_str());

  // Chaos leg: kills + corrupt frames every phase; recovery (respawn,
  // requeue) is the measured overhead.
  parallel::FaultInjector::Config faults;
  faults.kill_on_tasks = {10};
  faults.corrupt_on_tasks = {40};
  parallel::FarmPolicy policy;
  policy.max_task_retries = 8;
  policy.respawn_backoff = std::chrono::milliseconds(1);
  const FarmRun chaos = run_farm_phases(
      evaluator, batch, parallel::socket_transport_factory(),
      std::make_shared<parallel::FaultInjector>(faults), policy);
  std::printf("socket under chaos (1 kill + 1 corrupt frame per phase): "
              "%.4f s/phase (%.2fx clean socket; %llu losses, %llu "
              "respawns across run)\n\n",
              chaos.phase_seconds,
              chaos.phase_seconds / socket_run.phase_seconds,
              static_cast<unsigned long long>(chaos.stats.worker_losses),
              static_cast<unsigned long long>(chaos.stats.respawns));

  std::fprintf(json,
               "  \"farm_phase_seconds\": {\"in_process\": %.5f, "
               "\"socket\": %.5f, \"socket_chaos\": %.5f},\n"
               "  \"socket_overhead_ratio\": %.3f,\n"
               "  \"chaos_overhead_ratio\": %.3f\n",
               in_process.phase_seconds, socket_run.phase_seconds,
               chaos.phase_seconds,
               socket_run.phase_seconds / in_process.phase_seconds,
               chaos.phase_seconds / socket_run.phase_seconds);
}

}  // namespace

int main() {
  std::printf("=== Transport layer: in-process vs socket farm ===\n\n");
  std::FILE* json = std::fopen("BENCH_transport.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_transport.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  ldga::bench::write_machine_context(json);
  report_frame_codec(json);
  report_round_trips(json);
  report_farm(json);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_transport.json\n");
  return 0;
}

// The in-process transport in isolation: message delivery, addressing,
// and its worker-loss and damaged-reply machinery.
#include "parallel/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <vector>

namespace ldga::parallel {
namespace {

using namespace std::chrono_literals;

constexpr std::int32_t kPing = 1;
constexpr std::int32_t kPong = 2;
constexpr std::int32_t kQuit = 3;

/// Doubles every i32 it receives until told to quit. `fault` sabotages
/// the *next* reply only.
Transport::WorkerBody echo_body(FrameFault fault = FrameFault::kNone) {
  return [fault](WorkerChannel& channel) mutable {
    for (;;) {
      Message message;
      try {
        message = channel.receive_from_master();
      } catch (const TransportClosed&) {
        return;
      }
      if (message.tag == kQuit) return;
      Unpacker unpacker = message.unpacker();
      Packer reply;
      reply.pack(unpacker.unpack<std::int32_t>() * 2);
      channel.send_to_master(kPong, std::move(reply), fault);
      fault = FrameFault::kNone;
    }
  };
}

void send_ping(Transport& transport, TaskId worker, std::int32_t value) {
  Packer packer;
  packer.pack(value);
  transport.send_to_worker(worker, kPing, std::move(packer));
}

/// A live echo worker answers a ping, and the answer names it.
void expect_round_trip(Transport& transport, TaskId worker) {
  send_ping(transport, worker, 7);
  const Message reply = transport.receive();
  EXPECT_EQ(reply.tag, kPong);
  EXPECT_EQ(reply.source, worker);
  EXPECT_EQ(reply.unpacker().unpack<std::int32_t>(), 14);
}

TEST(InProcessTransport, EchoAcrossSeveralWorkers) {
  auto transport = make_in_process_transport(echo_body());
  std::vector<TaskId> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(transport->spawn_worker());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    send_ping(*transport, workers[i], static_cast<std::int32_t>(i) + 10);
  }
  int sum = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const Message reply = transport->receive();
    EXPECT_EQ(reply.tag, kPong);
    sum += reply.unpacker().unpack<std::int32_t>();
  }
  EXPECT_EQ(sum, 2 * (10 + 11 + 12));
  // Every worker that answered is still serving.
  for (const TaskId worker : workers) expect_round_trip(*transport, worker);
  for (const TaskId worker : workers) {
    transport->send_to_worker(worker, kQuit, Packer{});
  }
}

TEST(InProcessTransport, SendToUnknownWorkerIsATransportError) {
  auto transport = make_in_process_transport(echo_body());
  EXPECT_THROW(transport->send_to_worker(1234, kPing, Packer{}),
               TransportError);
}

TEST(InProcessTransport, ReceiveForTimesOutEmpty) {
  auto transport = make_in_process_transport(echo_body());
  (void)transport->spawn_worker();
  EXPECT_FALSE(transport->receive_for(30ms).has_value());
}

TEST(InProcessTransport, WorkerBodyEscapeBecomesWorkerLost) {
  auto transport = make_in_process_transport([](WorkerChannel& channel) {
    (void)channel.receive_from_master();
    throw std::runtime_error("evaluator blew up");
  });
  const TaskId worker = transport->spawn_worker();
  send_ping(*transport, worker, 1);
  const Message lost = transport->receive();
  EXPECT_EQ(lost.tag, transport_tag::kWorkerLost);
  EXPECT_EQ(lost.source, worker);
  const std::string reason = lost.unpacker().unpack_string();
  EXPECT_NE(reason.find("evaluator blew up"), std::string::npos);
  EXPECT_THROW(transport->send_to_worker(worker, kPing, Packer{}),
               TransportClosed);
}

TEST(InProcessTransport, DieIsAnnouncedWithItsReason) {
  auto transport = make_in_process_transport([](WorkerChannel& channel) {
    (void)channel.receive_from_master();
    channel.die("injected kill");
  });
  const TaskId worker = transport->spawn_worker();
  send_ping(*transport, worker, 1);
  const Message lost = transport->receive();
  EXPECT_EQ(lost.tag, transport_tag::kWorkerLost);
  EXPECT_NE(lost.unpacker().unpack_string().find("injected kill"),
            std::string::npos);
}

TEST(InProcessTransport, RetiredWorkerIsSilencedNotAnnounced) {
  auto transport = make_in_process_transport(echo_body());
  const TaskId worker = transport->spawn_worker();
  transport->retire_worker(worker);
  EXPECT_THROW(transport->send_to_worker(worker, kPing, Packer{}),
               TransportClosed);
  // The worker saw its mailbox close and exited *gracefully*: no
  // kWorkerLost may show up.
  EXPECT_FALSE(transport->receive_for(50ms).has_value());
}

TEST(InProcessTransport, CorruptReplySurfacesAsCorruptFrame) {
  auto transport = make_in_process_transport(echo_body(FrameFault::kCorrupt));
  const TaskId worker = transport->spawn_worker();
  send_ping(*transport, worker, 21);
  const Message corrupt = transport->receive();
  EXPECT_EQ(corrupt.tag, transport_tag::kCorruptFrame);
  EXPECT_EQ(corrupt.source, worker);
  // The notice carries the damaged reply's own payload after its
  // reason, so the receiver can tell which request it answered.
  Unpacker notice = corrupt.unpacker();
  EXPECT_FALSE(notice.unpack_string().empty());
  EXPECT_EQ(notice.unpack<std::int32_t>(), 42);
  EXPECT_TRUE(notice.exhausted());
  // In-process, only the one message was damaged — the worker survives
  // and the next exchange is clean.
  expect_round_trip(*transport, worker);
  transport->send_to_worker(worker, kQuit, Packer{});
}

TEST(InProcessTransport, DroppedReplyNeverArrives) {
  auto transport = make_in_process_transport(echo_body(FrameFault::kDrop));
  const TaskId worker = transport->spawn_worker();
  send_ping(*transport, worker, 3);
  EXPECT_FALSE(transport->receive_for(50ms).has_value());
  // The worker itself is fine; only the reply was lost.
  send_ping(*transport, worker, 4);
  EXPECT_EQ(transport->receive().unpacker().unpack<std::int32_t>(), 8);
  transport->send_to_worker(worker, kQuit, Packer{});
}

TEST(InProcessTransport, RequestReplyRoundTrip) {
  // One request, one reply: the answer arrives intact and names the
  // worker that sent it.
  auto transport = make_in_process_transport(echo_body());
  const TaskId worker = transport->spawn_worker();
  send_ping(*transport, worker, 21);
  const Message reply = transport->receive();
  EXPECT_EQ(reply.tag, kPong);
  EXPECT_EQ(reply.source, worker);
  EXPECT_EQ(reply.unpacker().unpack<std::int32_t>(), 42);
  transport->send_to_worker(worker, kQuit, Packer{});
}

TEST(InProcessTransport, SendToAnUnspawnedIdThrows) {
  // Only spawned workers are addresses: the next id, a negative id and
  // the master's own id are refused, and the living worker is untouched.
  auto transport = make_in_process_transport(echo_body());
  const TaskId worker = transport->spawn_worker();
  EXPECT_THROW(transport->send_to_worker(worker + 1, kPing, Packer{}),
               TransportError);
  EXPECT_THROW(transport->send_to_worker(-2, kPing, Packer{}),
               TransportError);
  EXPECT_THROW(transport->send_to_worker(kMasterTask, kPing, Packer{}),
               TransportError);
  expect_round_trip(*transport, worker);
  transport->send_to_worker(worker, kQuit, Packer{});
}

TEST(InProcessTransport, SendToRetiredWorkerIsTransportClosed) {
  // Retiring closes that one worker: sends to it fail as
  // TransportClosed, while its neighbour still answers.
  auto transport = make_in_process_transport(echo_body());
  const TaskId retired = transport->spawn_worker();
  const TaskId neighbour = transport->spawn_worker();
  transport->retire_worker(retired);
  EXPECT_THROW(transport->send_to_worker(retired, kPing, Packer{}),
               TransportClosed);
  send_ping(*transport, neighbour, 4);
  const Message reply = transport->receive();
  EXPECT_EQ(reply.source, neighbour);
  EXPECT_EQ(reply.unpacker().unpack<std::int32_t>(), 8);
  transport->send_to_worker(neighbour, kQuit, Packer{});
}

TEST(InProcessTransport, RetireUnblocksAWaitingWorker) {
  // A worker blocked on the master is released by retire_worker alone,
  // while the transport lives on.
  std::promise<void> released;
  std::future<void> done = released.get_future();
  auto transport =
      make_in_process_transport([&released](WorkerChannel& channel) {
        try {
          (void)channel.receive_from_master();
        } catch (const TransportClosed&) {
          released.set_value();
          throw;
        }
      });
  const TaskId worker = transport->spawn_worker();
  transport->retire_worker(worker);
  EXPECT_EQ(done.wait_for(5s), std::future_status::ready);
}

TEST(InProcessTransport, CorruptReplyNamesItsSender) {
  // Of two workers only the second damages its reply: the one
  // kCorruptFrame names that worker, with a readable reason, and the
  // first worker's reply arrives clean.
  auto transport = make_in_process_transport([](WorkerChannel& channel) {
    const Message message = channel.receive_from_master();
    Packer reply;
    reply.pack(message.unpacker().unpack<std::int32_t>() * 2);
    channel.send_to_master(kPong, std::move(reply),
                           channel.id() == 2 ? FrameFault::kCorrupt
                                             : FrameFault::kNone);
  });
  const TaskId clean = transport->spawn_worker();
  const TaskId saboteur = transport->spawn_worker();
  ASSERT_EQ(saboteur, 2);
  send_ping(*transport, clean, 3);
  send_ping(*transport, saboteur, 5);
  int corrupt_frames = 0;
  for (int i = 0; i < 2; ++i) {
    const Message message = transport->receive();
    if (message.tag == transport_tag::kCorruptFrame) {
      ++corrupt_frames;
      EXPECT_EQ(message.source, saboteur);
      const std::string reason = message.unpacker().unpack_string();
      EXPECT_NE(reason.find("worker 2"), std::string::npos) << reason;
    } else {
      EXPECT_EQ(message.tag, kPong);
      EXPECT_EQ(message.source, clean);
      EXPECT_EQ(message.unpacker().unpack<std::int32_t>(), 6);
    }
  }
  EXPECT_EQ(corrupt_frames, 1);
}

TEST(InProcessTransport, WorkersSeeTheMasterAsTaskZero) {
  // The master is task 0, and that is the source every worker sees on
  // what the master sends it.
  static_assert(kMasterTask == 0);
  auto transport = make_in_process_transport([](WorkerChannel& channel) {
    const Message message = channel.receive_from_master();
    Packer reply;
    reply.pack(message.source);
    channel.send_to_master(kPong, std::move(reply));
  });
  for (int i = 0; i < 2; ++i) {
    const TaskId worker = transport->spawn_worker();
    EXPECT_NE(worker, kMasterTask);
    send_ping(*transport, worker, 0);
    const Message reply = transport->receive();
    EXPECT_EQ(reply.source, worker);
    EXPECT_EQ(reply.unpacker().unpack<TaskId>(), kMasterTask);
  }
}

TEST(InProcessTransport, SpawnNumbersWorkersFromOne) {
  // Ids run 1, 2, 3, ..., and each worker's channel knows its own.
  auto transport = make_in_process_transport([](WorkerChannel& channel) {
    (void)channel.receive_from_master();
    Packer reply;
    reply.pack(channel.id());
    channel.send_to_master(kPong, std::move(reply));
  });
  for (TaskId expected = 1; expected <= 3; ++expected) {
    const TaskId worker = transport->spawn_worker();
    EXPECT_EQ(worker, expected);
    send_ping(*transport, worker, 0);
    const Message reply = transport->receive();
    EXPECT_EQ(reply.source, worker);
    EXPECT_EQ(reply.unpacker().unpack<TaskId>(), worker);
  }
}

TEST(InProcessTransport, DestructionReleasesBlockedWorkers) {
  // Workers blocked on the master must be released, and joined, by the
  // transport's destructor.
  std::atomic<int> released{0};
  {
    auto transport =
        make_in_process_transport([&released](WorkerChannel& channel) {
          try {
            (void)channel.receive_from_master();
          } catch (const TransportClosed&) {
            ++released;
            throw;
          }
        });
    for (int i = 0; i < 4; ++i) (void)transport->spawn_worker();
  }
  EXPECT_EQ(released.load(), 4);
}

}  // namespace
}  // namespace ldga::parallel

#include "parallel/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "parallel/transport_error.hpp"
#include "util/error.hpp"

namespace ldga::parallel {
namespace {

Message make_message(TaskId source, std::int32_t tag) {
  Message m;
  m.source = source;
  m.tag = tag;
  return m;
}

TEST(Mailbox, FifoWithinMatchingMessages) {
  // Arrival order wins whatever the source or tag.
  Mailbox box;
  Message first = make_message(1, 5);
  first.payload = {1};
  Message second = make_message(2, 9);
  second.payload = {2};
  Message third = make_message(1, 5);
  third.payload = {3};
  ASSERT_TRUE(box.deliver(std::move(first)));
  ASSERT_TRUE(box.deliver(std::move(second)));
  ASSERT_TRUE(box.deliver(std::move(third)));
  EXPECT_EQ(box.pending(), 3u);
  EXPECT_EQ(box.receive().payload[0], 1);
  EXPECT_EQ(box.receive().payload[0], 2);
  EXPECT_EQ(box.receive_for(std::chrono::milliseconds(0))->payload[0], 3);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, BlockingReceiveWakesOnDelivery) {
  Mailbox box;
  std::thread producer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(box.deliver(make_message(4, 44)));
  });
  const Message m = box.receive();
  EXPECT_EQ(m.tag, 44);
  producer.join();
}

TEST(Mailbox, CloseUnblocksReceiverWithError) {
  Mailbox box;
  std::thread closer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.close();
  });
  EXPECT_THROW(box.receive(), ParallelError);
  closer.join();
  EXPECT_TRUE(box.closed());
}

TEST(Mailbox, DeliveryAfterCloseIsRefused) {
  // The false return is the sender's typed signal: the transport layer
  // turns it into TransportClosed instead of losing the message quietly.
  Mailbox box;
  box.close();
  EXPECT_FALSE(box.deliver(make_message(1, 1)));
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, DrainsQueuedBeforeCloseError) {
  // Messages queued before the close are still received; receive()
  // fails only once the closed mailbox is empty.
  Mailbox box;
  ASSERT_TRUE(box.deliver(make_message(1, 1)));
  box.close();
  EXPECT_EQ(box.receive().tag, 1);
  EXPECT_THROW(box.receive(), ParallelError);
}

// ---- close/shutdown edge cases (ISSUE 6 satellite) -------------------

TEST(Mailbox, CloseWakesEveryBlockedReceiverWithTransportClosed) {
  Mailbox box;
  std::atomic<int> closed_errors{0};
  std::vector<std::thread> receivers;
  for (int i = 0; i < 4; ++i) {
    receivers.emplace_back([&box, &closed_errors] {
      try {
        (void)box.receive();  // nothing will ever arrive
      } catch (const TransportClosed&) {
        ++closed_errors;
      }
    });
  }
  // Give the receivers a moment to block, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.close();
  for (auto& receiver : receivers) receiver.join();
  EXPECT_EQ(closed_errors.load(), 4);
}

TEST(Mailbox, CloseIsSafeWithConcurrentSenders) {
  // Senders racing a close must each get a definite verdict — true
  // (queued before the close) or false (refused) — and the mailbox must
  // end up closed with no receiver able to block forever.
  Mailbox box;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        if (box.deliver(make_message(1, i))) {
          ++accepted;
        } else {
          ++refused;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  box.close();
  for (auto& sender : senders) sender.join();
  EXPECT_EQ(accepted.load() + refused.load(), 2000u);
  EXPECT_EQ(box.pending(), accepted.load());
  EXPECT_TRUE(box.closed());
  // And a straggler arriving after everything settled is refused too.
  EXPECT_FALSE(box.deliver(make_message(9, 9)));
}

TEST(Mailbox, TimedReceiveExpiringAgainstCloseIsAlwaysDefinite) {
  // A receive_for whose timeout races the close must resolve one of
  // exactly two ways — timeout (empty) or TransportClosed — never a
  // hang, never a crash. Run several laps to give the race both
  // outcomes a chance.
  for (int lap = 0; lap < 20; ++lap) {
    Mailbox box;
    std::atomic<bool> definite{false};
    std::thread receiver([&box, &definite] {
      try {
        const auto message = box.receive_for(std::chrono::milliseconds(2));
        definite = !message.has_value();  // timeout path
      } catch (const TransportClosed&) {
        definite = true;  // close path
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    box.close();
    receiver.join();
    EXPECT_TRUE(definite.load()) << "lap " << lap;
  }
}

TEST(Mailbox, TimedReceiveThrowsTypedErrorWhenClosedMidWait) {
  Mailbox box;
  std::thread closer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.close();
  });
  // Long timeout: the close must interrupt it, not the clock.
  EXPECT_THROW((void)box.receive_for(std::chrono::seconds(30)),
               TransportClosed);
  closer.join();
}

TEST(Mailbox, CloseIsIdempotent) {
  Mailbox box;
  box.close();
  box.close();
  EXPECT_TRUE(box.closed());
  EXPECT_THROW(box.receive(), TransportClosed);
}

}  // namespace
}  // namespace ldga::parallel

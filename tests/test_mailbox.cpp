#include "parallel/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace ldga::parallel {
namespace {

/// A move-only item, so the tests also pin that the mailbox never
/// copies what it carries.
struct Letter {
  int from = 0;
  int tag = 0;
  std::unique_ptr<int> body;
};

Letter make_letter(int from, int tag, int body = 0) {
  return Letter{from, tag, std::make_unique<int>(body)};
}

using Box = Mailbox<Letter>;

TEST(Mailbox, FifoWithinMatchingMessages) {
  // Arrival order wins whatever the sender or tag.
  Box box;
  ASSERT_TRUE(box.deliver(make_letter(1, 5, 1)));
  ASSERT_TRUE(box.deliver(make_letter(2, 9, 2)));
  ASSERT_TRUE(box.deliver(make_letter(1, 5, 3)));
  EXPECT_EQ(box.pending(), 3u);
  EXPECT_EQ(*box.receive().body, 1);
  EXPECT_EQ(*box.receive().body, 2);
  EXPECT_EQ(*box.receive_for(std::chrono::milliseconds(0))->body, 3);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, BlockingReceiveWakesOnDelivery) {
  Box box;
  std::thread producer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(box.deliver(make_letter(4, 44)));
  });
  const Letter letter = box.receive();
  EXPECT_EQ(letter.tag, 44);
  producer.join();
}

TEST(Mailbox, CloseUnblocksReceiverWithError) {
  Box box;
  std::thread closer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.close();
  });
  EXPECT_THROW(box.receive(), ParallelError);
  closer.join();
  EXPECT_TRUE(box.closed());
}

TEST(Mailbox, DeliveryAfterCloseIsRefused) {
  // The false return is the sender's signal that its receiver is gone:
  // a farm slave exits on it, and the master declares a slave whose
  // inbox refuses work lost, instead of losing the item quietly.
  Box box;
  box.close();
  EXPECT_FALSE(box.deliver(make_letter(1, 1)));
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, DrainsQueuedBeforeCloseError) {
  // Items queued before the close are still received; receive()
  // fails only once the closed mailbox is empty.
  Box box;
  ASSERT_TRUE(box.deliver(make_letter(1, 1)));
  box.close();
  EXPECT_EQ(box.receive().tag, 1);
  EXPECT_THROW(box.receive(), ParallelError);
}

// ---- close/shutdown edge cases --------------------------------------

TEST(Mailbox, CloseWakesEveryBlockedReceiverWithMailboxClosed) {
  Box box;
  std::atomic<int> closed_errors{0};
  std::vector<std::thread> receivers;
  for (int i = 0; i < 4; ++i) {
    receivers.emplace_back([&box, &closed_errors] {
      try {
        (void)box.receive();  // nothing will ever arrive
      } catch (const MailboxClosed&) {
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
  Box box;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        if (box.deliver(make_letter(1, i))) {
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
  EXPECT_FALSE(box.deliver(make_letter(9, 9)));
}

TEST(Mailbox, TimedReceiveExpiringAgainstCloseIsAlwaysDefinite) {
  // A receive_for whose timeout races the close must resolve one of
  // exactly two ways — timeout (empty) or MailboxClosed — never a
  // hang, never a crash. Run several laps to give the race both
  // outcomes a chance.
  for (int lap = 0; lap < 20; ++lap) {
    Box box;
    std::atomic<bool> definite{false};
    std::thread receiver([&box, &definite] {
      try {
        const auto message = box.receive_for(std::chrono::milliseconds(2));
        definite = !message.has_value();  // timeout path
      } catch (const MailboxClosed&) {
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
  Box box;
  std::thread closer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.close();
  });
  // Long timeout: the close must interrupt it, not the clock.
  EXPECT_THROW((void)box.receive_for(std::chrono::seconds(30)),
               MailboxClosed);
  closer.join();
}

TEST(Mailbox, CloseIsIdempotent) {
  Box box;
  box.close();
  box.close();
  EXPECT_TRUE(box.closed());
  EXPECT_THROW(box.receive(), MailboxClosed);
}

}  // namespace
}  // namespace ldga::parallel

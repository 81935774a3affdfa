#include "ga/migration.hpp"

#include "util/error.hpp"

namespace ldga::ga {

MigrationRouter::MigrationRouter(std::uint32_t island_count)
    : inboxes_(island_count) {
  LDGA_EXPECTS(island_count >= 1);
}

bool MigrationRouter::send(std::uint32_t from, std::uint32_t to,
                           std::int32_t tag,
                           const HaplotypeIndividual& individual) {
  LDGA_EXPECTS(from < inboxes_.size() && to < inboxes_.size());
  LDGA_EXPECTS(individual.evaluated());
  Inbox& inbox = inboxes_[to];
  {
    const std::lock_guard lock(inbox.mutex);
    if (inbox.closed) return false;
    inbox.queue.push_back(Incoming{from, tag, individual});
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<MigrationRouter::Incoming> MigrationRouter::drain(
    std::uint32_t island) {
  LDGA_EXPECTS(island < inboxes_.size());
  std::vector<Incoming> incoming;
  {
    Inbox& inbox = inboxes_[island];
    const std::lock_guard lock(inbox.mutex);
    incoming.swap(inbox.queue);
  }
  if (!incoming.empty()) {
    received_.fetch_add(incoming.size(), std::memory_order_relaxed);
  }
  return incoming;
}

void MigrationRouter::close() {
  for (Inbox& inbox : inboxes_) {
    const std::lock_guard lock(inbox.mutex);
    inbox.closed = true;
  }
}

}  // namespace ldga::ga

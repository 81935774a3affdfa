#include "parallel/socket_transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "parallel/frame.hpp"
#include "parallel/process_supervisor.hpp"
#include "util/error.hpp"

namespace ldga::parallel {

namespace {

/// How long a lost connection's worker may take to exit before SIGKILL.
constexpr std::chrono::milliseconds kShutdownGrace{500};

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a vanished peer must be EPIPE, not SIGPIPE.
    const ssize_t written = ::send(fd, data, size, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw TransportClosed(std::string("socket send failed: ") +
                            std::strerror(errno));
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
}

/// One read(2) of what `fd` holds into `decoder`, blocking until bytes
/// or EOF arrive. Returns "" while the stream is open, else why it ended.
std::string read_into(int fd, FrameDecoder& decoder) {
  std::uint8_t buffer[65536];
  for (;;) {
    const ssize_t count = ::read(fd, buffer, sizeof buffer);
    if (count > 0) {
      decoder.feed(buffer, static_cast<std::size_t>(count));
      return {};
    }
    if (count == 0) return "connection closed";
    if (errno != EINTR) {
      return std::string("read failed: ") + std::strerror(errno);
    }
  }
}

/// The worker-process side of one connection.
class SocketWorkerChannel final : public WorkerChannel {
 public:
  SocketWorkerChannel(TaskId id, int fd) : id_(id), fd_(fd) {}

  TaskId id() const override { return id_; }

  void send_to_master(std::int32_t tag, Packer payload,
                      FrameFault fault) override {
    if (fault == FrameFault::kDrop) return;
    Message message;
    message.source = id_;
    message.tag = tag;
    message.payload = std::move(payload).take();
    auto frame = encode_frame(message);
    if (fault == FrameFault::kCorrupt) {
      frame.back() ^= 0x20u;  // payload tail, or the CRC when empty
    }
    write_all(fd_, frame.data(), frame.size());
  }

  Message receive_from_master() override {
    for (;;) {
      // FrameError from a corrupt master->worker stream propagates and
      // takes the whole process down — the master sees EOF and treats
      // the worker as lost, which is the only honest outcome.
      if (auto message = decoder_.next()) return std::move(*message);
      const std::string ended = read_into(fd_, decoder_);
      if (!ended.empty()) throw TransportClosed("master socket: " + ended);
    }
  }

  [[noreturn]] void die(const std::string& /*reason*/) override {
    // SIGKILL-equivalent: no goodbye on the wire, no cleanup.
    ::_exit(137);
  }

  [[noreturn]] void disconnect() override {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    ::_exit(0);
  }

 private:
  TaskId id_;
  int fd_;
  FrameDecoder decoder_;
};

[[noreturn]] void run_child(TaskId id, int fd,
                            const Transport::WorkerBody& body) {
  SocketWorkerChannel channel(id, fd);
  try {
    body(channel);
  } catch (const TransportClosed&) {
    // Master went away or told us to stop; exit quietly.
  }
  ::shutdown(fd, SHUT_RDWR);
  ::_exit(0);
}

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(WorkerBody body) : body_(std::move(body)) {
    LDGA_EXPECTS(body_ != nullptr);
  }

  ~SocketTransport() override {
    // The children see EOF; the supervisor's destructor SIGKILLs and
    // reaps every one still running.
    for (const auto& [id, conn] : connections_) ::close(conn.fd);
  }

  TaskId spawn_worker() override {
    const TaskId id = next_id_++;

    // Every fd the child inherits but must not keep: other workers'
    // connections (a child holding a sibling's socket would defeat EOF
    // detection) and the master's end of its own pair.
    std::vector<int> close_in_child;
    for (const auto& [other, conn] : connections_) {
      close_in_child.push_back(conn.fd);
    }
    int pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
      throw SpawnError(std::string("socketpair failed: ") +
                       std::strerror(errno));
    }
    const int parent_fd = pair[0];
    const int child_fd = pair[1];
    close_in_child.push_back(parent_fd);

    pid_t pid = -1;
    try {
      pid = supervisor_.spawn([this, id, child_fd, close_in_child] {
        for (const int fd : close_in_child) ::close(fd);
        run_child(id, child_fd, body_);
      });
    } catch (...) {
      ::close(parent_fd);
      ::close(child_fd);
      throw;
    }
    ::close(child_fd);
    connections_.emplace(id, Conn{pid, parent_fd, FrameDecoder{}});
    return id;
  }

  void send_to_worker(TaskId worker, std::int32_t tag,
                      Packer payload) override {
    const auto found = connections_.find(worker);
    if (found == connections_.end()) {
      if (worker < 1 || worker >= next_id_) {
        throw TransportError("send to unknown worker " +
                             std::to_string(worker));
      }
      throw TransportClosed("worker " + std::to_string(worker) +
                            " is gone");
    }
    Message message;
    message.source = kMasterTask;
    message.tag = tag;
    message.payload = std::move(payload).take();
    const auto frame = encode_frame(message);
    write_all(found->second.fd, frame.data(), frame.size());
  }

  Message receive() override { return *take(Clock::time_point::max()); }

  std::optional<Message> receive_for(
      std::chrono::milliseconds timeout) override {
    return take(Clock::now() + timeout);
  }

  bool worker_alive(TaskId worker) const override {
    return connections_.contains(worker);
  }

  void retire_worker(TaskId worker) override {
    const auto found = connections_.find(worker);
    if (found == connections_.end()) return;
    // No kWorkerLost follows a retirement, so no exit status is worth
    // waiting for: a zero grace SIGKILLs the child and reaps it at once.
    (void)supervisor_.reap(found->second.pid, std::chrono::milliseconds(0));
    ::close(found->second.fd);
    connections_.erase(found);
  }

  std::string_view name() const override { return "socket"; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    pid_t pid = -1;
    int fd = -1;
    FrameDecoder decoder;
  };
  using ConnIt = std::map<TaskId, Conn>::iterator;

  /// The oldest decoded message, polling the open connections on the
  /// caller's thread until one arrives or `deadline` has passed (after
  /// one last poll that does not wait).
  std::optional<Message> take(Clock::time_point deadline) {
    while (ready_.empty()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - Clock::now());
      const int wait_ms =
          static_cast<int>(std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
      poll_connections(wait_ms);
      if (wait_ms == 0 && ready_.empty()) return std::nullopt;
    }
    Message message = std::move(ready_.front());
    ready_.pop_front();
    return message;
  }

  /// One poll(2) over every open connection, for up to `timeout_ms`;
  /// drains each one that is ready.
  void poll_connections(int timeout_ms) {
    std::vector<pollfd> pollers;
    for (const auto& [id, conn] : connections_) {
      pollers.push_back({conn.fd, POLLIN, 0});
    }
    if (::poll(pollers.data(), pollers.size(), timeout_ms) < 0) {
      if (errno == EINTR) return;
      throw TransportError(std::string("socket poll failed: ") +
                           std::strerror(errno));
    }
    // pollers runs in connections_' order. drain erases at most the
    // connection it is handed, which leaves `next` valid.
    ConnIt next = connections_.begin();
    for (const pollfd& poller : pollers) {
      const ConnIt conn = next++;
      if (poller.revents != 0) drain(conn);
    }
  }

  /// Reads once from a ready connection and queues its complete frames.
  /// On EOF, a read error or a corrupt frame the connection closes and
  /// the farm's recovery messages follow those frames: kCorruptFrame
  /// (corruption only), then kWorkerLost with the exit description.
  void drain(ConnIt found) {
    const TaskId id = found->first;
    Conn& conn = found->second;
    std::string reason = read_into(conn.fd, conn.decoder);
    bool corrupt = false;
    try {
      while (auto message = conn.decoder.next()) {
        message->source = id;  // the fd, not the frame, is the identity
        ready_.push_back(std::move(*message));
      }
    } catch (const FrameError& error) {
      corrupt = true;
      reason = error.what();
    }
    if (reason.empty()) return;
    if (corrupt) {
      // A desynchronized stream cannot be re-trusted: kill the worker
      // and let the loss below requeue its task.
      supervisor_.kill_now(conn.pid);
      ready_.push_back(
          control_message(id, transport_tag::kCorruptFrame, reason));
    }
    const std::string exit_description =
        supervisor_.reap(conn.pid, kShutdownGrace);
    ready_.push_back(control_message(id, transport_tag::kWorkerLost,
                                     reason + "; " + exit_description));
    ::close(conn.fd);
    connections_.erase(found);
  }

  WorkerBody body_;
  ProcessSupervisor supervisor_;
  std::map<TaskId, Conn> connections_;  ///< open ones only
  std::deque<Message> ready_;  ///< decoded, not yet received; oldest first
  TaskId next_id_ = 1;
};

}  // namespace

std::unique_ptr<Transport> make_socket_transport(Transport::WorkerBody body) {
  return std::make_unique<SocketTransport>(std::move(body));
}

TransportFactory socket_transport_factory() {
  return [](Transport::WorkerBody body) {
    return make_socket_transport(std::move(body));
  };
}

}  // namespace ldga::parallel

#include "parallel/socket_transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/frame.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/process_supervisor.hpp"
#include "util/error.hpp"

namespace ldga::parallel {

void SocketTransportConfig::validate() const {
  if (heartbeat_interval.count() <= 0) {
    throw ConfigError("SocketTransportConfig: heartbeat_interval must be > 0");
  }
}

namespace {

/// How long teardown (or a lost connection) waits for a worker process
/// to exit before SIGKILL.
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

void send_frame(int fd, const Message& message) {
  const auto frame = encode_frame(message);
  write_all(fd, frame.data(), frame.size());
}

/// The worker-process side of one connection.
class SocketWorkerChannel final : public WorkerChannel {
 public:
  SocketWorkerChannel(TaskId id, int fd,
                      std::chrono::milliseconds heartbeat_interval)
      : id_(id), fd_(fd), heartbeat_interval_(heartbeat_interval) {}

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
      pollfd poller{fd_, POLLIN, 0};
      const int ready =
          ::poll(&poller, 1, static_cast<int>(heartbeat_interval_.count()));
      if (ready == 0) {
        Message beat;
        beat.source = id_;
        beat.tag = transport_tag::kHeartbeat;
        send_frame(fd_, beat);
        continue;
      }
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw TransportClosed(std::string("socket poll failed: ") +
                              std::strerror(errno));
      }
      std::uint8_t buffer[65536];
      const ssize_t count = ::read(fd_, buffer, sizeof buffer);
      if (count == 0) {
        throw TransportClosed("master closed the connection");
      }
      if (count < 0) {
        if (errno == EINTR) continue;
        throw TransportClosed(std::string("socket read failed: ") +
                              std::strerror(errno));
      }
      decoder_.feed(buffer, static_cast<std::size_t>(count));
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
  std::chrono::milliseconds heartbeat_interval_;
  FrameDecoder decoder_;
};

[[noreturn]] void run_child(TaskId id, int fd,
                            const Transport::WorkerBody& body,
                            const SocketTransportConfig& config) {
  SocketWorkerChannel channel(id, fd, config.heartbeat_interval);
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
  SocketTransport(WorkerBody body, SocketTransportConfig config)
      : config_(config), body_(std::move(body)) {
    LDGA_EXPECTS(body_ != nullptr);
    config_.validate();
  }

  ~SocketTransport() override {
    std::vector<Conn*> connections;
    {
      std::lock_guard lock(mutex_);
      for (auto& [id, conn] : connections_) {
        conn->retired.store(true);
        connections.push_back(conn.get());
      }
    }
    // Wake every child and reader with EOF, then join before closing
    // the fds (readers reap children with the shutdown grace period;
    // the supervisor destructor SIGKILLs whatever survives that).
    for (Conn* conn : connections) ::shutdown(conn->fd, SHUT_RDWR);
    for (Conn* conn : connections) {
      if (conn->reader.joinable()) conn->reader.join();
    }
    for (Conn* conn : connections) ::close(conn->fd);
    inbox_.close();
  }

  TaskId spawn_worker() override {
    std::lock_guard lock(mutex_);
    const TaskId id = next_id_++;

    // Every fd the child inherits but must not keep: other workers'
    // connections (a child holding a sibling's socket would defeat EOF
    // detection) and the master's end of its own pair.
    std::vector<int> close_in_child;
    for (const auto& [other, conn] : connections_) {
      close_in_child.push_back(conn->fd);
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
        run_child(id, child_fd, body_, config_);
      });
    } catch (...) {
      ::close(parent_fd);
      ::close(child_fd);
      throw;
    }
    ::close(child_fd);

    auto conn = std::make_unique<Conn>();
    conn->pid = pid;
    conn->fd = parent_fd;
    Conn* raw = conn.get();
    conn->reader = std::thread([this, raw, id] { read_loop(raw, id); });
    connections_.emplace(id, std::move(conn));
    return id;
  }

  void send_to_worker(TaskId worker, std::int32_t tag,
                      Packer payload) override {
    int fd = -1;
    {
      std::lock_guard lock(mutex_);
      const auto found = connections_.find(worker);
      if (found == connections_.end()) {
        throw TransportError("send to unknown worker " +
                             std::to_string(worker));
      }
      if (!found->second->alive.load() || found->second->retired.load()) {
        throw TransportClosed("worker " + std::to_string(worker) +
                              " is gone");
      }
      fd = found->second->fd;
    }
    Message message;
    message.source = kMasterTask;
    message.tag = tag;
    message.payload = std::move(payload).take();
    send_frame(fd, message);
  }

  Message receive() override { return inbox_.receive(); }

  std::optional<Message> receive_for(
      std::chrono::milliseconds timeout) override {
    return inbox_.receive_for(timeout);
  }

  bool worker_alive(TaskId worker) const override {
    std::lock_guard lock(mutex_);
    const auto found = connections_.find(worker);
    return found != connections_.end() && found->second->alive.load() &&
           !found->second->retired.load();
  }

  void retire_worker(TaskId worker) override {
    std::lock_guard lock(mutex_);
    const auto found = connections_.find(worker);
    if (found == connections_.end()) return;
    found->second->retired.store(true);
    // EOF wakes both the child (which exits) and the reader (which
    // reaps it); the fd itself stays open until destruction so no
    // concurrent reader can ever touch a recycled descriptor.
    ::shutdown(found->second->fd, SHUT_RDWR);
  }

  std::string_view name() const override { return "socket"; }

 private:
  struct Conn {
    pid_t pid = -1;
    int fd = -1;
    std::thread reader;
    std::atomic<bool> alive{true};
    std::atomic<bool> retired{false};
  };

  /// Master-side reader, one thread per connection: frames in, messages
  /// into the shared inbox; on EOF or corruption, retire the connection
  /// and synthesize the control messages the farm recovers by.
  void read_loop(Conn* conn, TaskId id) {
    FrameDecoder decoder;
    std::string reason;
    bool corrupt = false;
    for (;;) {
      try {
        while (auto message = decoder.next()) {
          message->source = id;  // the fd, not the frame, is the identity
          (void)inbox_.deliver(std::move(*message));
        }
      } catch (const FrameError& error) {
        corrupt = true;
        reason = error.what();
        break;
      }
      std::uint8_t buffer[65536];
      const ssize_t count = ::read(conn->fd, buffer, sizeof buffer);
      if (count > 0) {
        decoder.feed(buffer, static_cast<std::size_t>(count));
        continue;
      }
      if (count < 0 && errno == EINTR) continue;
      reason = count == 0 ? "connection closed"
                          : std::string("read failed: ") +
                                std::strerror(errno);
      break;
    }

    conn->alive.store(false);
    if (corrupt) {
      // A desynchronized stream cannot be re-trusted: kill the worker
      // and let the loss path below requeue its task.
      supervisor_.kill_now(conn->pid);
      (void)inbox_.deliver(
          control_message(id, transport_tag::kCorruptFrame, reason));
    }
    const std::string exit_description =
        supervisor_.reap(conn->pid, kShutdownGrace);
    if (!conn->retired.load()) {
      (void)inbox_.deliver(control_message(
          id, transport_tag::kWorkerLost, reason + "; " + exit_description));
    }
  }

  SocketTransportConfig config_;
  WorkerBody body_;
  Mailbox inbox_;
  ProcessSupervisor supervisor_;
  mutable std::mutex mutex_;
  std::map<TaskId, std::unique_ptr<Conn>> connections_;
  TaskId next_id_ = 1;
};

}  // namespace

std::unique_ptr<Transport> make_socket_transport(Transport::WorkerBody body,
                                                 SocketTransportConfig config) {
  return std::make_unique<SocketTransport>(std::move(body), config);
}

TransportFactory socket_transport_factory(SocketTransportConfig config) {
  return [config](Transport::WorkerBody body) {
    return make_socket_transport(std::move(body), config);
  };
}

}  // namespace ldga::parallel

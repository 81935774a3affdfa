#include "parallel/frame.hpp"

#include <cstring>

#include "util/crc32.hpp"

namespace ldga::parallel {

namespace {

// magic + version + source + tag + payload_size + crc32
constexpr std::size_t kFrameHeaderBytes =
    sizeof(std::uint32_t) + 1 + sizeof(std::int32_t) + sizeof(std::int32_t) +
    sizeof(std::uint32_t) + sizeof(std::uint32_t);

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
T get(const std::uint8_t* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Message& message) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + message.payload.size());
  put(frame, kFrameMagic);
  frame.push_back(kWireProtocolVersion);
  put(frame, message.source);
  put(frame, message.tag);
  put(frame, static_cast<std::uint32_t>(message.payload.size()));
  put(frame, util::crc32(message.payload));
  frame.insert(frame.end(), message.payload.begin(), message.payload.end());
  return frame;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: drop consumed bytes before growing the buffer.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Message> FrameDecoder::next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;

  if (get<std::uint32_t>(head) != kFrameMagic) {
    throw FrameError("bad frame magic (stream corrupt or desynchronized)");
  }
  if (head[4] != kWireProtocolVersion) {
    throw FrameError("frame protocol version mismatch (got " +
                     std::to_string(static_cast<int>(head[4])) + ")");
  }
  const auto source = get<std::int32_t>(head + 5);
  const auto tag = get<std::int32_t>(head + 9);
  const auto payload_size = get<std::uint32_t>(head + 13);
  const auto expected_crc = get<std::uint32_t>(head + 17);
  if (payload_size > max_payload_bytes_) {
    throw FrameError("frame payload length " + std::to_string(payload_size) +
                     " exceeds the " + std::to_string(max_payload_bytes_) +
                     "-byte limit (stream corrupt)");
  }
  if (available < kFrameHeaderBytes + payload_size) return std::nullopt;

  Message message;
  message.source = source;
  message.tag = tag;
  message.payload.assign(head + kFrameHeaderBytes,
                         head + kFrameHeaderBytes + payload_size);
  if (util::crc32(message.payload) != expected_crc) {
    throw FrameError("frame checksum mismatch (corrupt frame)");
  }
  consumed_ += kFrameHeaderBytes + payload_size;
  return message;
}

}  // namespace ldga::parallel

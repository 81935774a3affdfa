// The socket transport's wire format: every message between the master
// and a forked worker travels as one self-delimiting, checksummed frame
//
//   [magic][version][source][tag][payload_size][crc32][payload]
//
// little-endian, whose payload is the message's plain Packer bytes. The
// decoder is incremental: feed it whatever read(2) returned and take
// decoded messages out; a bad magic, unknown version, oversized length,
// or checksum mismatch throws FrameError — after which the stream is
// unrecoverable by design (length framing cannot be trusted), so the
// caller must drop the connection. In-process messages never leave
// memory and carry no frame.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "parallel/message.hpp"
#include "parallel/transport_error.hpp"

namespace ldga::parallel {

/// Version byte carried by every frame; bump when the Packer wire
/// format or the frame header changes shape.
inline constexpr std::uint8_t kWireProtocolVersion = 1;

/// Frame magic ("LDGF" little-endian) marking each frame start.
inline constexpr std::uint32_t kFrameMagic = 0x4647444cu;

/// The largest payload a frame may declare: 16 MiB.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Serializes one message as a self-delimiting checksummed frame.
std::vector<std::uint8_t> encode_frame(const Message& message);

/// Incremental frame parser over a byte stream (one per connection).
class FrameDecoder {
 public:
  /// Frames larger than this are treated as stream corruption — the
  /// length field is part of the unauthenticated header, so an insane
  /// value must not drive a giant allocation.
  explicit FrameDecoder(std::uint32_t max_payload_bytes = kMaxFrameBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  /// Appends raw bytes read from the stream.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Extracts the next complete message, if one is buffered. Throws
  /// FrameError on corruption; the decoder is unusable afterwards.
  std::optional<Message> next();

  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::uint32_t max_payload_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace ldga::parallel

#include "parallel/message.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ldga::parallel {
namespace {

TEST(Message, ScalarRoundTrip) {
  Packer packer;
  packer.pack<std::int32_t>(-7);
  packer.pack<std::uint32_t>(42u);
  packer.pack<std::int64_t>(-1'000'000'000'000LL);
  packer.pack<std::uint64_t>(9'000'000'000'000'000'000ULL);
  packer.pack(3.14159);

  const auto bytes = std::move(packer).take();
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  EXPECT_EQ(unpacker.unpack<std::int32_t>(), -7);
  EXPECT_EQ(unpacker.unpack<std::uint32_t>(), 42u);
  EXPECT_EQ(unpacker.unpack<std::int64_t>(), -1'000'000'000'000LL);
  EXPECT_EQ(unpacker.unpack<std::uint64_t>(), 9'000'000'000'000'000'000ULL);
  EXPECT_DOUBLE_EQ(unpacker.unpack<double>(), 3.14159);
  EXPECT_TRUE(unpacker.exhausted());
}

TEST(Message, VectorRoundTrip) {
  Packer packer;
  const std::vector<std::uint32_t> ints{1, 5, 9};
  const std::vector<double> doubles{0.5, -2.25};
  packer.pack_vector(ints);
  packer.pack_vector(doubles);

  const auto bytes = std::move(packer).take();
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  EXPECT_EQ(unpacker.unpack_vector<std::uint32_t>(), ints);
  EXPECT_EQ(unpacker.unpack_vector<double>(), doubles);
}

TEST(Message, EmptyVectorRoundTrip) {
  Packer packer;
  packer.pack_vector(std::vector<double>{});
  const auto bytes = std::move(packer).take();
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  EXPECT_TRUE(unpacker.unpack_vector<double>().empty());
  EXPECT_TRUE(unpacker.exhausted());
}

TEST(Message, StringRoundTrip) {
  Packer packer;
  packer.pack_string("hello pvm");
  packer.pack_string("");
  const auto bytes = std::move(packer).take();
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  EXPECT_EQ(unpacker.unpack_string(), "hello pvm");
  EXPECT_EQ(unpacker.unpack_string(), "");
}

TEST(Message, MixedSequenceRoundTrip) {
  Packer packer;
  packer.pack<std::uint64_t>(3);
  packer.pack_vector(std::vector<std::uint32_t>{8, 12, 15});
  packer.pack(58.814);
  const auto bytes = std::move(packer).take();
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  EXPECT_EQ(unpacker.unpack<std::uint64_t>(), 3u);
  EXPECT_EQ(unpacker.unpack_vector<std::uint32_t>(),
            (std::vector<std::uint32_t>{8, 12, 15}));
  EXPECT_DOUBLE_EQ(unpacker.unpack<double>(), 58.814);
}

TEST(Message, TypeMismatchThrows) {
  Packer packer;
  packer.pack(1.5);
  const auto bytes = std::move(packer).take();
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  EXPECT_THROW(unpacker.unpack<std::int32_t>(), ParallelError);
}

TEST(Message, VectorElementTypeMismatchThrows) {
  Packer packer;
  packer.pack_vector(std::vector<double>{1.0});
  const auto bytes = std::move(packer).take();
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  EXPECT_THROW(unpacker.unpack_vector<std::uint32_t>(), ParallelError);
}

TEST(Message, ReadPastEndThrows) {
  Packer packer;
  packer.pack<std::int32_t>(1);
  const auto bytes = std::move(packer).take();
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  unpacker.unpack<std::int32_t>();
  EXPECT_THROW(unpacker.unpack<std::int32_t>(), ParallelError);
}

TEST(Message, TruncatedPayloadThrows) {
  Packer packer;
  packer.pack(2.5);
  auto bytes = std::move(packer).take();
  ASSERT_GT(bytes.size(), 3u);
  bytes.pop_back();  // cut into the scalar bytes (shrink-only: resize's
  bytes.pop_back();  // grow path trips GCC 12 -Wstringop-overflow under
  bytes.pop_back();  // the sanitizer presets)
  Unpacker unpacker((std::span<const std::uint8_t>(bytes)));
  EXPECT_THROW(unpacker.unpack<double>(), ParallelError);
}

}  // namespace
}  // namespace ldga::parallel

#include <gtest/gtest.h>

#include "net/wire.h"

namespace superfe {
namespace {

PacketRecord MakeTcpPacket() {
  PacketRecord pkt;
  pkt.timestamp_ns = 123456789;
  pkt.tuple = {MakeIp(10, 0, 0, 1), MakeIp(172, 16, 0, 2), 43210, 443, kProtoTcp};
  pkt.wire_bytes = 120;
  pkt.tcp_flags = kTcpSyn;
  pkt.src_mac = 0x020000001234ull;
  pkt.dst_mac = 0x020000005678ull;
  return pkt;
}

TEST(WireTest, TcpRoundTrip) {
  const PacketRecord original = MakeTcpPacket();
  const auto frame = EncodeFrame(original);
  ASSERT_EQ(frame.size(), original.wire_bytes);

  auto parsed = ParseFrame(frame.data(), frame.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tuple, original.tuple);
  EXPECT_EQ(parsed->tcp_flags, original.tcp_flags);
  EXPECT_EQ(parsed->src_mac, original.src_mac);
  EXPECT_EQ(parsed->dst_mac, original.dst_mac);
  EXPECT_EQ(parsed->wire_bytes, original.wire_bytes);
}

TEST(WireTest, UdpRoundTrip) {
  PacketRecord pkt = MakeTcpPacket();
  pkt.tuple.protocol = kProtoUdp;
  pkt.tcp_flags = 0;
  const auto frame = EncodeFrame(pkt);
  auto parsed = ParseFrame(frame.data(), frame.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tuple, pkt.tuple);
  EXPECT_EQ(parsed->tcp_flags, 0);
}

TEST(WireTest, PadsToMinimumFrame) {
  PacketRecord pkt = MakeTcpPacket();
  pkt.wire_bytes = 10;  // Below the Ethernet minimum.
  const auto frame = EncodeFrame(pkt);
  EXPECT_EQ(frame.size(), kMinFrameLen);
}

TEST(WireTest, Ipv4ChecksumValid) {
  const auto frame = EncodeFrame(MakeTcpPacket());
  // Recomputing the checksum over the IPv4 header must yield zero.
  EXPECT_EQ(InternetChecksum(frame.data() + kEthHeaderLen, kIpv4MinHeaderLen), 0);
}

TEST(WireTest, RejectsTruncatedFrame) {
  const auto frame = EncodeFrame(MakeTcpPacket());
  auto parsed = ParseFrame(frame.data(), 20);
  EXPECT_FALSE(parsed.ok());
}

TEST(WireTest, RejectsNonIpv4) {
  auto frame = EncodeFrame(MakeTcpPacket());
  frame[12] = 0x86;  // EtherType -> IPv6.
  frame[13] = 0xdd;
  auto parsed = ParseFrame(frame.data(), frame.size());
  EXPECT_FALSE(parsed.ok());
}

TEST(WireTest, ChecksumKnownValue) {
  // RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, csum 220d.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data, sizeof(data)), 0x220d);
}

TEST(WireTest, OddLengthChecksum) {
  const uint8_t data[] = {0x01, 0x02, 0x03};
  // Manual: 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(InternetChecksum(data, sizeof(data)), 0xfbfd);
}

TEST(WireOptionsTest, ParsesIpv4WithOptions) {
  // Hand-build a frame with IHL = 6 (one option word).
  PacketRecord pkt;
  pkt.tuple = {MakeIp(1, 1, 1, 1), MakeIp(2, 2, 2, 2), 10, 20, kProtoTcp};
  pkt.wire_bytes = 80;
  auto frame = EncodeFrame(pkt);
  // Widen the IP header: shift the TCP header right by 4 bytes.
  frame.insert(frame.begin() + kEthHeaderLen + kIpv4MinHeaderLen, {0x01, 0x01, 0x01, 0x01});
  frame[kEthHeaderLen] = 0x46;  // Version 4, IHL 6.
  auto parsed = ParseFrame(frame.data(), frame.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tuple.src_port, 10);
  EXPECT_EQ(parsed->tuple.dst_port, 20);
}

TEST(FiveTupleTest, CanonicalIsOrientationInvariant) {
  FiveTuple t{MakeIp(1, 2, 3, 4), MakeIp(5, 6, 7, 8), 1000, 80, kProtoTcp};
  EXPECT_EQ(t.Canonical(), t.Reversed().Canonical());
}

TEST(FiveTupleTest, ReversedSwapsEndpoints) {
  FiveTuple t{1, 2, 3, 4, kProtoUdp};
  const FiveTuple r = t.Reversed();
  EXPECT_EQ(r.src_ip, 2u);
  EXPECT_EQ(r.dst_ip, 1u);
  EXPECT_EQ(r.src_port, 4);
  EXPECT_EQ(r.dst_port, 3);
}

TEST(FiveTupleTest, ToBytesLayout) {
  FiveTuple t{0x01020304, 0x05060708, 0x1122, 0x3344, kProtoTcp};
  const auto bytes = t.ToBytes();
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[3], 0x04);
  EXPECT_EQ(bytes[4], 0x05);
  EXPECT_EQ(bytes[8], 0x11);
  EXPECT_EQ(bytes[10], 0x33);
  EXPECT_EQ(bytes[12], kProtoTcp);
}

TEST(PacketRecordTest, DirectionSign) {
  PacketRecord pkt;
  pkt.direction = Direction::kForward;
  EXPECT_EQ(pkt.DirectionSign(), 1);
  pkt.direction = Direction::kBackward;
  EXPECT_EQ(pkt.DirectionSign(), -1);
}

}  // namespace
}  // namespace superfe

// Robustness "fuzz-lite" tests: randomized mutations and garbage inputs
// must produce clean errors, never crashes or hangs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "apps/policies.h"
#include "common/rng.h"
#include "net/pcap.h"
#include "net/wire.h"
#include "policy/compile.h"
#include "policy/parser.h"

namespace superfe {
namespace {

const char* kSeedPolicy = R"(
pktstream
  .filter(tcp.exist && dst_port == 443)
  .groupby(host, channel, socket)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum{decay=5}], host)
  .reduce(size, [f_mean, f_var, ft_hist{100, 16}])
  .reduce(ipt, [ft_percent{0.9}], channel)
  .synthesize(f_norm(size.f_mean))
  .collect(pkt)
)";

TEST(ParserFuzzTest, SingleCharacterMutationsNeverCrash) {
  const std::string seed = kSeedPolicy;
  Rng rng(0xf022);
  int accepted = 0;
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::string mutated = seed;
    const int mutations = 1 + static_cast<int>(rng.UniformU64(3));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.UniformU64(mutated.size());
      const char replacement = static_cast<char>(32 + rng.UniformU64(95));
      mutated[pos] = replacement;
    }
    auto policy = ParsePolicy("fuzz", mutated);
    if (policy.ok()) {
      ++accepted;
      // Whatever parsed must also compile or fail cleanly.
      auto compiled = Compile(*policy);
      (void)compiled;
    }
  }
  // Some mutations (comments, whitespace, digits) survive; most do not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 500);
}

TEST(ParserFuzzTest, TruncationsNeverCrash) {
  const std::string seed = kSeedPolicy;
  for (size_t len = 0; len < seed.size(); len += 7) {
    auto policy = ParsePolicy("trunc", seed.substr(0, len));
    (void)policy;
  }
  SUCCEED();
}

TEST(ParserFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(0xf023);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::string garbage(rng.UniformU64(400), ' ');
    for (auto& c : garbage) {
      c = static_cast<char>(rng.UniformU64(256));
    }
    auto policy = ParsePolicy("garbage", garbage);
    EXPECT_FALSE(policy.ok());
  }
}

TEST(ParserFuzzTest, DeeplyNestedBracesRejected) {
  std::string source = "pktstream.groupby(flow).reduce(size, [f_mean";
  for (int i = 0; i < 200; ++i) {
    source += "{1";
  }
  auto policy = ParsePolicy("nested", source);
  EXPECT_FALSE(policy.ok());
}

TEST(PcapFuzzTest, GarbageFilesRejected) {
  Rng rng(0xf024);
  const std::string path = ::testing::TempDir() + "/superfe_fuzz.pcap";
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::ofstream out(path, std::ios::binary);
    const size_t len = rng.UniformU64(512);
    for (size_t i = 0; i < len; ++i) {
      out.put(static_cast<char>(rng.UniformU64(256)));
    }
    out.close();
    auto trace = ReadPcap(path, nullptr);
    (void)trace;  // ok() or clean error; must not crash.
  }
  std::remove(path.c_str());
  SUCCEED();
}

TEST(PcapFuzzTest, TruncatedValidFileRejectedCleanly) {
  // Write a valid pcap then truncate at every 64-byte boundary.
  Trace trace;
  PacketRecord pkt;
  pkt.tuple = {MakeIp(1, 2, 3, 4), MakeIp(5, 6, 7, 8), 10, 20, kProtoTcp};
  pkt.wire_bytes = 100;
  for (int i = 0; i < 5; ++i) {
    pkt.timestamp_ns = i * 1000;
    trace.Add(pkt);
  }
  const std::string path = ::testing::TempDir() + "/superfe_trunc.pcap";
  ASSERT_TRUE(WritePcap(path, trace).ok());
  std::ifstream in(path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  for (size_t len = 0; len < full.size(); len += 64) {
    std::ofstream out(path, std::ios::binary);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    auto loaded = ReadPcap(path, nullptr);
    (void)loaded;
  }
  std::remove(path.c_str());
  SUCCEED();
}

namespace pcap_bytes {

// Little-endian nanosecond pcap global header.
std::string GlobalHeader() {
  std::string h(24, '\0');
  const uint32_t magic = 0xa1b23c4d;
  const uint32_t snaplen = 65535;
  const uint32_t linktype = 1;
  std::memcpy(&h[0], &magic, 4);
  h[4] = 2;  // Major.
  h[6] = 4;  // Minor.
  std::memcpy(&h[16], &snaplen, 4);
  std::memcpy(&h[20], &linktype, 4);
  return h;
}

std::string RecordHeader(uint32_t cap_len, uint32_t orig_len) {
  std::string r(16, '\0');
  std::memcpy(&r[8], &cap_len, 4);
  std::memcpy(&r[12], &orig_len, 4);
  return r;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace pcap_bytes

TEST(PcapFuzzTest, TruncatedTailKeepsIntactPrefix) {
  // A capture cut off mid-stream (crashed writer) must yield the intact
  // prefix plus an exact truncation count, not an error.
  Trace trace;
  PacketRecord pkt;
  pkt.tuple = {MakeIp(1, 2, 3, 4), MakeIp(5, 6, 7, 8), 10, 20, kProtoTcp};
  pkt.wire_bytes = 100;
  for (int i = 0; i < 5; ++i) {
    pkt.timestamp_ns = i * 1000;
    trace.Add(pkt);
  }
  const std::string path = ::testing::TempDir() + "/superfe_tail.pcap";
  ASSERT_TRUE(WritePcap(path, trace).ok());
  std::ifstream in(path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const size_t record_bytes = (full.size() - 24) / 5;
  for (size_t keep = 0; keep < 5; ++keep) {
    // Cut halfway into record `keep` — records [0, keep) stay intact.
    const size_t len = 24 + keep * record_bytes + record_bytes / 2;
    pcap_bytes::WriteFile(path, full.substr(0, len));
    PcapReadStats stats;
    auto loaded = ReadPcap(path, &stats);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->size(), keep);
    EXPECT_EQ(stats.frames_decoded, keep);
    EXPECT_EQ(stats.truncated_records, 1u);
    EXPECT_EQ(stats.corrupt_records, 0u);
  }
  std::remove(path.c_str());
}

TEST(PcapFuzzTest, OversizedCapLenFailsAndCounts) {
  const std::string path = ::testing::TempDir() + "/superfe_oversized.pcap";
  pcap_bytes::WriteFile(path, pcap_bytes::GlobalHeader() +
                                  pcap_bytes::RecordHeader(1u << 20, 1u << 20));
  PcapReadStats stats;
  auto loaded = ReadPcap(path, &stats);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(stats.corrupt_records, 1u);
  std::remove(path.c_str());
}

TEST(PcapFuzzTest, InconsistentOrigLenRepairedAndCounted) {
  // orig_len < cap_len is impossible for a real capture; the reader clamps
  // wire bytes to the bytes present and counts the record corrupt.
  Trace trace;
  PacketRecord pkt;
  pkt.tuple = {MakeIp(9, 9, 9, 9), MakeIp(8, 8, 8, 8), 1234, 443, kProtoTcp};
  pkt.wire_bytes = 200;
  pkt.timestamp_ns = 5000;
  trace.Add(pkt);
  const std::string path = ::testing::TempDir() + "/superfe_origlen.pcap";
  ASSERT_TRUE(WritePcap(path, trace).ok());
  std::ifstream in(path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const uint32_t bogus_orig = 1;  // Less than the encoded frame's cap_len.
  std::memcpy(&full[24 + 12], &bogus_orig, 4);
  pcap_bytes::WriteFile(path, full);
  PcapReadStats stats;
  auto loaded = ReadPcap(path, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  uint32_t cap_len;
  std::memcpy(&cap_len, &full[24 + 8], 4);
  EXPECT_EQ(loaded->packets()[0].wire_bytes, cap_len);
  EXPECT_EQ(stats.corrupt_records, 1u);
  std::remove(path.c_str());
}

TEST(PcapFuzzTest, RandomRecordsAfterValidHeaderNeverCrash) {
  // Valid global header, garbage record stream: every outcome must be a
  // clean ok()/error, and the stats buckets must cover what was seen.
  Rng rng(0xf025);
  const std::string path = ::testing::TempDir() + "/superfe_randrec.pcap";
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::string bytes = pcap_bytes::GlobalHeader();
    const size_t len = rng.UniformU64(512);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    pcap_bytes::WriteFile(path, bytes);
    PcapReadStats stats;
    auto loaded = ReadPcap(path, &stats);
    if (loaded.ok()) {
      EXPECT_EQ(stats.frames_decoded + stats.frames_skipped +
                    stats.truncated_records + stats.corrupt_records,
                stats.records);
    }
  }
  std::remove(path.c_str());
  SUCCEED();
}

TEST(WireFuzzTest, TruncatedFramesNeverCrash) {
  PacketRecord pkt;
  pkt.tuple = {MakeIp(1, 2, 3, 4), MakeIp(5, 6, 7, 8), 10, 20, kProtoTcp};
  pkt.wire_bytes = 1200;
  pkt.timestamp_ns = 42;
  const std::vector<uint8_t> frame = EncodeFrame(pkt);
  for (size_t len = 0; len <= frame.size(); ++len) {
    auto parsed = ParseFrame(frame.data(), len);
    if (len == frame.size()) {
      EXPECT_TRUE(parsed.ok());
    }
  }
  SUCCEED();
}

// Round trip: every app policy pretty-prints to a form that re-parses and
// re-compiles to the identical feature dimension.
class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, ToStringReparsesEquivalently) {
  const AppPolicy app = AllAppPolicies()[GetParam()];
  const std::string printed = app.policy.ToString();
  auto reparsed = ParsePolicy(app.name + "-rt", printed);
  ASSERT_TRUE(reparsed.ok()) << app.name << ": " << reparsed.status().ToString() << "\n"
                             << printed;
  auto original = Compile(app.policy);
  auto round_trip = Compile(*reparsed);
  ASSERT_TRUE(original.ok() && round_trip.ok()) << app.name;
  EXPECT_EQ(round_trip->nic_program.FeatureDimension(),
            original->nic_program.FeatureDimension())
      << app.name;
  EXPECT_EQ(round_trip->switch_program.chain, original->switch_program.chain) << app.name;
  EXPECT_EQ(round_trip->switch_program.MetadataBytesPerPacket(),
            original->switch_program.MetadataBytesPerPacket())
      << app.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, RoundTripTest, ::testing::Range(0, 10),
                         [](const auto& info) {
                           std::string name = AllAppPolicies()[info.param].name;
                           for (auto& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace superfe

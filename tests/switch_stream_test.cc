// Pins the switch -> NIC message stream. golden_test digests only the sorted
// feature rows at the end of the pipeline; this test digests what the switch
// emits on the way, for the five examples/policies over the three paper
// profiles (20k packets, seed 1):
//   - the report stream in emission order: each report's CG key bytes,
//     hash, reason and latency stamps, and each cell's wire fields, FG index,
//     shadow timestamp and FG key bytes;
//   - the FG-sync stream in emission order (index and key bytes);
//   - every MgpvStats field after the flush;
//   - ShardedFeSwitch::ShardOf for every packet, at 2 and at 4 shards.
// A change to key derivation or hashing (MGPV slots, FG indices, shard and
// member routing) must leave every digest unchanged.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "net/trace_gen.h"
#include "policy/compile.h"
#include "policy/parser.h"
#include "switchsim/fe_switch.h"
#include "switchsim/sharded_fe_switch.h"

namespace superfe {
namespace {

struct StreamGolden {
  const char* policy;
  const char* profile;
  const char* reports;  // FNV-1a of the report stream, "/" report count.
  const char* syncs;    // FNV-1a of the FG-sync stream, "/" sync count.
  const char* stats;    // FNV-1a of every MgpvStats field.
  const char* shards;   // FNV-1a of ShardOf at 2 shards, then at 4.
};

// Recorded before the switch hashed packed keys; one line per (policy,
// profile).
constexpr StreamGolden kGolden[] = {
    {"basic_stats", "mawi", "ad1d04247b80d184/824", "14650fb0739d0383/0", "07174dd5d08bae81", "894bcea80303a2bd"},
    {"basic_stats", "enterprise", "dae8f08d1ef9efdb/2241", "14650fb0739d0383/0", "d7756ec6eae08ef3", "3feab955976dfafd"},
    {"basic_stats", "campus", "96eddcafae9e0352/757", "14650fb0739d0383/0", "7db38e0b3f980bd3", "b580239939c91fe7"},
    {"channel_stats", "mawi", "ff86f806a22aac6e/935", "6de8c29f64b39ca4/177", "3b6cb553b9fce016", "b5068941ab6ac155"},
    {"channel_stats", "enterprise", "219f9aa0b002ae71/2362", "8a263805588c8377/2153", "fc4c357979737b3c", "5166835fcee6ec47"},
    {"channel_stats", "campus", "bb817719b54c64a4/1064", "bbe150127a2922e1/408", "acb37ef4b11902c0", "01bc60683cdfbed1"},
    {"direction_seq", "mawi", "ad1d04247b80d184/824", "14650fb0739d0383/0", "84c125b636952440", "894bcea80303a2bd"},
    {"direction_seq", "enterprise", "dae8f08d1ef9efdb/2241", "14650fb0739d0383/0", "2684d5bd7cfc0d72", "3feab955976dfafd"},
    {"direction_seq", "campus", "96eddcafae9e0352/757", "14650fb0739d0383/0", "255773d8c0b74e5f", "b580239939c91fe7"},
    {"frequency", "mawi", "f1ec7f3ac51f611e/935", "14650fb0739d0383/0", "6d61ada6e07ad3dd", "894bcea80303a2bd"},
    {"frequency", "enterprise", "3ed73d9db8dbc31a/2400", "14650fb0739d0383/0", "e0a0e13a9ae035b3", "3feab955976dfafd"},
    {"frequency", "campus", "b7661d8514fb9062/1081", "14650fb0739d0383/0", "cb869dcd8e1c5553", "b580239939c91fe7"},
    {"multi_granularity", "mawi", "0af5d4cd222b487a/935", "6de8c29f64b39ca4/177", "8d529fcf2275e50e", "7a924b580206e64d"},
    {"multi_granularity", "enterprise", "7d7f843dbf0c6d0e/2304", "8a263805588c8377/2153", "f0216f68d369aac6", "0fa426ce7f870d89"},
    {"multi_granularity", "campus", "b474dce84c70cf82/1066", "bbe150127a2922e1/408", "8df37427d5c2f2fa", "8c2d3c330ef4af31"},
};

class Digest {
 public:
  template <typename T>
  void Add(T value) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i))) * kPrime;
    }
  }
  void AddBytes(const uint8_t* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ data[i]) * kPrime;
    }
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h_ = 1469598103934665603ull;
};

// The 13 bytes of an FG key (the FiveTuple::ToBytes layout).
std::array<uint8_t, 13> KeyBytes(const InitiatorKey& key) {
  return GroupKey::Of(key, Granularity::kFlow).bytes;
}

class StreamDigestSink : public MgpvSink {
 public:
  void OnMgpv(const MgpvReport& report) override {
    ++reports_;
    reports_digest_.Add(static_cast<uint8_t>(report.cg_key.granularity));
    reports_digest_.Add(report.cg_key.length);
    reports_digest_.AddBytes(report.cg_key.bytes.data(), report.cg_key.length);
    reports_digest_.Add(report.hash);
    reports_digest_.Add(static_cast<uint8_t>(report.reason));
    reports_digest_.Add(report.first_ingest_ns);
    reports_digest_.Add(report.evict_ns);
    reports_digest_.Add(static_cast<uint32_t>(report.cells.size()));
    for (const MgpvCell& cell : report.cells) {
      reports_digest_.Add(cell.size);
      reports_digest_.Add(cell.tstamp);
      reports_digest_.Add(static_cast<uint8_t>(cell.direction));
      reports_digest_.Add(cell.fg_index);
      reports_digest_.Add(cell.full_timestamp_ns);
      const auto key = KeyBytes(cell.fg_key);
      reports_digest_.AddBytes(key.data(), key.size());
    }
  }
  void OnFgSync(const FgSyncMessage& sync) override {
    ++syncs_;
    syncs_digest_.Add(sync.index);
    const auto key = KeyBytes(sync.key);
    syncs_digest_.AddBytes(key.data(), key.size());
  }

  std::string Reports() const { return reports_digest_.Hex() + "/" + std::to_string(reports_); }
  std::string Syncs() const { return syncs_digest_.Hex() + "/" + std::to_string(syncs_); }

 private:
  Digest reports_digest_;
  Digest syncs_digest_;
  uint64_t reports_ = 0;
  uint64_t syncs_ = 0;
};

class NullMgpvSink : public MgpvSink {
 public:
  void OnMgpv(const MgpvReport&) override {}
  void OnFgSync(const FgSyncMessage&) override {}
};

std::string StatsDigest(const MgpvStats& s) {
  Digest d;
  for (uint64_t v : {s.packets_in, s.bytes_in, s.reports_out, s.cells_out, s.bytes_out,
                     s.fg_syncs, s.fg_collisions, s.evictions[0], s.evictions[1],
                     s.evictions[2], s.evictions[3], s.evictions[4], s.long_allocs,
                     s.long_alloc_failures, s.pressure_evictions, s.injected_pool_failures}) {
    d.Add(v);
  }
  return d.Hex();
}

std::string ShardDigest(const CompiledPolicy& compiled, const Trace& trace) {
  Digest d;
  for (size_t shards : {2u, 4u}) {
    std::vector<NullMgpvSink> sinks(shards);
    std::vector<MgpvSink*> sink_ptrs;
    for (auto& sink : sinks) {
      sink_ptrs.push_back(&sink);
    }
    const ShardedFeSwitch sharded(compiled, sink_ptrs, FeSwitch::DefaultConfig(compiled),
                                  ShardedSwitchOptions{});
    for (const PacketRecord& pkt : trace.packets()) {
      d.Add(static_cast<uint8_t>(sharded.ShardOf(pkt)));
    }
  }
  return d.Hex();
}

CompiledPolicy CompileExample(const std::string& name) {
  const std::string path =
      std::string(SUPERFE_SOURCE_DIR) + "/examples/policies/" + name + ".sfe";
  std::ifstream in(path);
  std::stringstream source;
  source << in.rdbuf();
  auto policy = ParsePolicy(path, source.str());
  EXPECT_TRUE(policy.ok()) << path << ": " << policy.status().ToString();
  auto compiled = Compile(*policy);
  EXPECT_TRUE(compiled.ok()) << path << ": " << compiled.status().ToString();
  return std::move(compiled).value();
}

TraceProfile ProfileByName(const std::string& name) {
  if (name == "mawi") {
    return MawiIxpProfile();
  }
  if (name == "campus") {
    return CampusProfile();
  }
  return EnterpriseProfile();
}

const StreamGolden* FindGolden(const std::string& policy, const std::string& profile) {
  for (const StreamGolden& g : kGolden) {
    if (policy == g.policy && profile == g.profile) {
      return &g;
    }
  }
  return nullptr;
}

class SwitchStreamTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SwitchStreamTest, StreamMatchesRecordedDigests) {
  const std::string policy = std::get<0>(GetParam());
  const std::string profile = std::get<1>(GetParam());
  const CompiledPolicy compiled = CompileExample(policy);
  const Trace trace = GenerateTrace(ProfileByName(profile), 20000, /*seed=*/1);

  StreamDigestSink sink;
  FeSwitch sw(compiled, &sink);
  for (const PacketRecord& pkt : trace.packets()) {
    sw.OnPacket(pkt);
  }
  sw.Flush();

  const std::string reports = sink.Reports();
  const std::string syncs = sink.Syncs();
  const std::string stats = StatsDigest(sw.cache().stats());
  const std::string shards = ShardDigest(compiled, trace);
  const StreamGolden* golden = FindGolden(policy, profile);
  // The failure message is the table line to record.
  EXPECT_TRUE(golden != nullptr && reports == golden->reports && syncs == golden->syncs &&
              stats == golden->stats && shards == golden->shards)
      << "{\"" << policy << "\", \"" << profile << "\", \"" << reports << "\", \"" << syncs
      << "\", \"" << stats << "\", \"" << shards << "\"},";
}

INSTANTIATE_TEST_SUITE_P(
    Examples, SwitchStreamTest,
    ::testing::Combine(::testing::Values("basic_stats", "channel_stats", "direction_seq",
                                         "frequency", "multi_granularity"),
                       ::testing::Values("mawi", "enterprise", "campus")),
    [](const ::testing::TestParamInfo<SwitchStreamTest::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace superfe

#include "net/pcap.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "net/wire.h"

namespace superfe {
namespace {

constexpr uint32_t kMagicNano = 0xa1b23c4d;
constexpr uint32_t kMagicMicro = 0xa1b2c3d4;
constexpr uint32_t kLinkTypeEthernet = 1;
constexpr uint32_t kSnapLen = 65535;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }

uint32_t GetU32(const uint8_t* p, bool swap) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return swap ? __builtin_bswap32(v) : v;
}

}  // namespace

Status WritePcap(const std::string& path, const Trace& trace) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }

  uint8_t header[24] = {};
  PutU32(header, kMagicNano);
  PutU16(header + 4, 2);   // Major.
  PutU16(header + 6, 4);   // Minor.
  PutU32(header + 16, kSnapLen);
  PutU32(header + 20, kLinkTypeEthernet);
  if (std::fwrite(header, 1, sizeof(header), file.get()) != sizeof(header)) {
    return Status::Internal("short write on pcap header");
  }

  for (const auto& record : trace.packets()) {
    const std::vector<uint8_t> frame = EncodeFrame(record);
    uint8_t rec[16];
    PutU32(rec, static_cast<uint32_t>(record.timestamp_ns / 1000000000ull));
    PutU32(rec + 4, static_cast<uint32_t>(record.timestamp_ns % 1000000000ull));
    PutU32(rec + 8, static_cast<uint32_t>(frame.size()));
    PutU32(rec + 12, static_cast<uint32_t>(frame.size()));
    if (std::fwrite(rec, 1, sizeof(rec), file.get()) != sizeof(rec) ||
        std::fwrite(frame.data(), 1, frame.size(), file.get()) != frame.size()) {
      return Status::Internal("short write on pcap record");
    }
  }
  return Status::Ok();
}

Result<Trace> ReadPcap(const std::string& path, PcapReadStats* stats) {
  PcapReadStats local;
  if (stats == nullptr) {
    stats = &local;
  }
  *stats = PcapReadStats{};
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open: " + path);
  }

  uint8_t header[24];
  if (std::fread(header, 1, sizeof(header), file.get()) != sizeof(header)) {
    return Status::InvalidArgument("truncated pcap header");
  }
  uint32_t magic;
  std::memcpy(&magic, header, 4);
  bool swap = false;
  bool nano = false;
  if (magic == kMagicNano) {
    nano = true;
  } else if (magic == kMagicMicro) {
    nano = false;
  } else if (magic == __builtin_bswap32(kMagicNano)) {
    nano = true;
    swap = true;
  } else if (magic == __builtin_bswap32(kMagicMicro)) {
    nano = false;
    swap = true;
  } else {
    return Status::InvalidArgument("not a pcap file: " + path);
  }

  Trace trace(path);
  // First-seen orientation per canonical flow defines Direction::kForward.
  std::unordered_map<FiveTuple, FiveTuple, FiveTupleHash> forward_orientation;

  for (;;) {
    uint8_t rec[16];
    const size_t got = std::fread(rec, 1, sizeof(rec), file.get());
    if (got == 0) {
      break;  // Clean EOF.
    }
    stats->records++;
    if (got != sizeof(rec)) {
      // Capture cut off mid-record-header (crashed writer, partial copy):
      // keep the intact prefix.
      stats->truncated_records++;
      break;
    }
    const uint32_t ts_sec = GetU32(rec, swap);
    const uint32_t ts_frac = GetU32(rec + 4, swap);
    const uint32_t cap_len = GetU32(rec + 8, swap);
    uint32_t orig_len = GetU32(rec + 12, swap);
    if (cap_len > kSnapLen) {
      // A bogus length means the stream framing is gone — nothing after
      // this point can be trusted to start on a record boundary.
      stats->corrupt_records++;
      return Status::InvalidArgument("pcap record larger than snaplen (" +
                                     std::to_string(cap_len) + " bytes)");
    }
    if (orig_len < cap_len) {
      // Inconsistent lengths; repair to the bytes actually present.
      stats->corrupt_records++;
      orig_len = cap_len;
    }
    std::vector<uint8_t> frame(cap_len);
    if (std::fread(frame.data(), 1, cap_len, file.get()) != cap_len) {
      stats->truncated_records++;  // Cut off mid-frame: keep the prefix.
      break;
    }
    auto parsed = ParseFrame(frame.data(), frame.size());
    if (!parsed.ok()) {
      stats->frames_skipped++;
      continue;  // Skip non-IPv4 frames.
    }
    stats->frames_decoded++;
    PacketRecord record = std::move(parsed).value();
    record.timestamp_ns =
        static_cast<uint64_t>(ts_sec) * 1000000000ull + (nano ? ts_frac : ts_frac * 1000ull);
    record.wire_bytes = orig_len;

    const FiveTuple canonical = record.tuple.Canonical();
    auto [it, inserted] = forward_orientation.emplace(canonical, record.tuple);
    record.direction =
        record.tuple == it->second ? Direction::kForward : Direction::kBackward;
    trace.Add(record);
  }
  return trace;
}

}  // namespace superfe

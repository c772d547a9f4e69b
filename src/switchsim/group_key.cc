#include "switchsim/group_key.h"

#include <cstdio>

#include "common/hash.h"

namespace superfe {

GroupKey GroupKey::Of(const InitiatorKey& key, Granularity granularity) {
  GroupKey out;
  out.granularity = granularity;
  out.length = static_cast<uint8_t>(InitiatorKey::PrefixBytes(granularity));
  // Big-endian: hi's eight bytes, then lo's low five; the bytes past the
  // prefix stay zero.
  for (int i = 0; i < out.length; ++i) {
    out.bytes[i] = static_cast<uint8_t>(i < 8 ? key.hi >> (56 - 8 * i) : key.lo >> (96 - 8 * i));
  }
  return out;
}

uint32_t GroupKey::Hash() const { return Crc32(bytes.data(), length, Seed(granularity)); }

std::string GroupKey::ToString() const {
  std::string out = GranularityName(granularity);
  out += ":";
  for (int i = 0; i < length; ++i) {
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%02x", bytes[i]);
    out += buf;
  }
  return out;
}

}  // namespace superfe

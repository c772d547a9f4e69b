#include "common/hash.h"

#include <array>

namespace superfe {
namespace crc32_internal {
namespace {

constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

}  // namespace

alignas(64) constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

}  // namespace crc32_internal

namespace {

inline uint64_t Load64Be(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline uint32_t Rotl32(uint32_t x, int r) { return (x << r) | (x >> (32 - r)); }

}  // namespace

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; length >= 8; length -= 8, bytes += 8) {
    crc = Crc32StepBe64(crc, Load64Be(bytes));
  }
  for (; length > 0; --length, ++bytes) {
    crc = crc32_internal::kTables[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Murmur3(const void* data, size_t length, uint32_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  const uint32_t c1 = 0xcc9e2d51u;
  const uint32_t c2 = 0x1b873593u;
  uint32_t h = seed;
  const size_t nblocks = length / 4;

  for (size_t i = 0; i < nblocks; ++i) {
    uint32_t k = static_cast<uint32_t>(bytes[i * 4]) |
                 (static_cast<uint32_t>(bytes[i * 4 + 1]) << 8) |
                 (static_cast<uint32_t>(bytes[i * 4 + 2]) << 16) |
                 (static_cast<uint32_t>(bytes[i * 4 + 3]) << 24);
    k *= c1;
    k = Rotl32(k, 15);
    k *= c2;
    h ^= k;
    h = Rotl32(h, 13);
    h = h * 5 + 0xe6546b64u;
  }

  uint32_t k = 0;
  const uint8_t* tail = bytes + nblocks * 4;
  switch (length & 3u) {
    case 3:
      k ^= static_cast<uint32_t>(tail[2]) << 16;
      [[fallthrough]];
    case 2:
      k ^= static_cast<uint32_t>(tail[1]) << 8;
      [[fallthrough]];
    case 1:
      k ^= tail[0];
      k *= c1;
      k = Rotl32(k, 15);
      k *= c2;
      h ^= k;
      break;
    default:
      break;
  }

  h ^= static_cast<uint32_t>(length);
  h ^= h >> 16;
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace superfe

// Hash functions used by the switch and NIC simulators.
//
// The Tofino data plane exposes CRC-based hash units; the NFP reuses the
// switch-computed hash index when the optimization is enabled (§6.2). Both
// simulators therefore share these implementations.
#ifndef SUPERFE_COMMON_HASH_H_
#define SUPERFE_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace superfe {

// CRC-32 (IEEE 802.3 polynomial, reflected). Matches the polynomial available
// in Tofino hash engines. Slicing-by-8: eight bytes per table round.
uint32_t Crc32(const void* data, size_t length, uint32_t seed = 0);

namespace crc32_internal {
// kTables[0] is the bytewise CRC table; kTables[k][b] is the register after
// byte b followed by k zero bytes.
extern const std::array<std::array<uint32_t, 256>, 8> kTables;
}  // namespace crc32_internal

// Steps of the Crc32 register over big-endian words, so a packed key hashes
// to Crc32 of its serialized bytes without building them. With
// `crc = ~seed`, each step consumes the word's bytes most significant first,
// and ~crc is then the Crc32 of those bytes.
inline uint32_t Crc32StepBe32(uint32_t crc, uint32_t word) {
  const auto& t = crc32_internal::kTables;
  const uint32_t x = crc ^ __builtin_bswap32(word);
  return t[3][x & 0xff] ^ t[2][(x >> 8) & 0xff] ^ t[1][(x >> 16) & 0xff] ^ t[0][x >> 24];
}

inline uint32_t Crc32StepBe64(uint32_t crc, uint64_t word) {
  const auto& t = crc32_internal::kTables;
  const uint32_t x = crc ^ __builtin_bswap32(static_cast<uint32_t>(word >> 32));
  const uint32_t y = __builtin_bswap32(static_cast<uint32_t>(word));
  return t[7][x & 0xff] ^ t[6][(x >> 8) & 0xff] ^ t[5][(x >> 16) & 0xff] ^ t[4][x >> 24] ^
         t[3][y & 0xff] ^ t[2][(y >> 8) & 0xff] ^ t[1][(y >> 16) & 0xff] ^ t[0][y >> 24];
}

// The low five bytes of `word`.
inline uint32_t Crc32StepBe40(uint32_t crc, uint64_t word) {
  const auto& t = crc32_internal::kTables;
  const uint32_t x = crc ^ __builtin_bswap32(static_cast<uint32_t>(word >> 8));
  return t[4][x & 0xff] ^ t[3][(x >> 8) & 0xff] ^ t[2][(x >> 16) & 0xff] ^ t[1][x >> 24] ^
         t[0][word & 0xff];
}

// MurmurHash3 x86 32-bit finalizer-based hash; used where a second
// independent hash function is needed (e.g. HyperLogLog bucketing).
uint32_t Murmur3(const void* data, size_t length, uint32_t seed = 0);

// 64-bit avalanche mix (splitmix64 finalizer). Good for hashing small
// integer keys.
uint64_t Mix64(uint64_t x);

// Combines two hash values (boost-style).
inline uint32_t HashCombine(uint32_t a, uint32_t b) {
  return a ^ (b + 0x9e3779b9u + (a << 6) + (a >> 2));
}

}  // namespace superfe

#endif  // SUPERFE_COMMON_HASH_H_

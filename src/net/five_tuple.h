// The classic transport five-tuple plus the coarser grouping keys used by
// SuperFE granularities (§4.1, Table 5): flow, host, channel, socket.
#ifndef SUPERFE_NET_FIVE_TUPLE_H_
#define SUPERFE_NET_FIVE_TUPLE_H_

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>

namespace superfe {

// IP protocol numbers we care about.
inline constexpr uint8_t kProtoIcmp = 1;
inline constexpr uint8_t kProtoTcp = 6;
inline constexpr uint8_t kProtoUdp = 17;

struct FiveTuple {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;

  auto operator<=>(const FiveTuple&) const = default;

  // Serializes to the 13-byte canonical key layout used by switch hash units.
  std::array<uint8_t, 13> ToBytes() const;

  // The same tuple with endpoints swapped (the reverse direction of a
  // bidirectional conversation).
  FiveTuple Reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }

  // Canonical form: the lexicographically smaller of (this, Reversed()).
  // Both directions of a conversation map to the same canonical tuple.
  FiveTuple Canonical() const;

  // True if this tuple is already in canonical orientation.
  bool IsCanonicalOrientation() const { return Canonical() == *this; }
};

// Builds an IPv4 address from dotted-quad components.
constexpr uint32_t MakeIp(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
  return (static_cast<uint32_t>(a) << 24) | (static_cast<uint32_t>(b) << 16) |
         (static_cast<uint32_t>(c) << 8) | static_cast<uint32_t>(d);
}

// Hash functor for unordered containers.
struct FiveTupleHash {
  size_t operator()(const FiveTuple& t) const;
};

}  // namespace superfe

#endif  // SUPERFE_NET_FIVE_TUPLE_H_

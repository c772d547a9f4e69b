#include "net/five_tuple.h"

#include "common/hash.h"

namespace superfe {

std::array<uint8_t, 13> FiveTuple::ToBytes() const {
  std::array<uint8_t, 13> out{};
  out[0] = static_cast<uint8_t>(src_ip >> 24);
  out[1] = static_cast<uint8_t>(src_ip >> 16);
  out[2] = static_cast<uint8_t>(src_ip >> 8);
  out[3] = static_cast<uint8_t>(src_ip);
  out[4] = static_cast<uint8_t>(dst_ip >> 24);
  out[5] = static_cast<uint8_t>(dst_ip >> 16);
  out[6] = static_cast<uint8_t>(dst_ip >> 8);
  out[7] = static_cast<uint8_t>(dst_ip);
  out[8] = static_cast<uint8_t>(src_port >> 8);
  out[9] = static_cast<uint8_t>(src_port);
  out[10] = static_cast<uint8_t>(dst_port >> 8);
  out[11] = static_cast<uint8_t>(dst_port);
  out[12] = protocol;
  return out;
}

FiveTuple FiveTuple::Canonical() const {
  const FiveTuple reversed = Reversed();
  return *this <= reversed ? *this : reversed;
}

size_t FiveTupleHash::operator()(const FiveTuple& t) const {
  const auto bytes = t.ToBytes();
  return Murmur3(bytes.data(), bytes.size(), 0x51af5e17u);
}

}  // namespace superfe

// Group keys for the SuperFE granularities, in the byte layout the switch
// hash units consume.
//
// Every key is stored in *initiator orientation*: the finest-granularity
// (FG) key is the five-tuple as sent by the flow initiator, the channel key
// is the ordered (initiator, responder) IP pair, and the host key is the
// initiator's IP. Orienting the whole chain the same way means each coarser
// key is a prefix-projection of the FG key — both directions of a flow map
// to the same key at every granularity, so any coarser key is derivable
// from the FG key alone (no direction bit needed), which is what lets MGPV
// store each packet's metadata once and re-split on the NIC (§5.1). It also
// makes CG-hash routing exact under sharding: a group's packets can never
// straddle shards/members just because the two directions hashed apart.
#ifndef SUPERFE_SWITCHSIM_GROUP_KEY_H_
#define SUPERFE_SWITCHSIM_GROUP_KEY_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/hash.h"
#include "net/packet.h"
#include "policy/ast.h"

namespace superfe {

// The initiator-oriented five-tuple packed into two words, in the layout
// the NIC's batch columns use (PacketBatchSoA::key_hi/key_lo): hi =
// src_ip:dst_ip, lo = src_port:dst_port:protocol in its low 40 bits. Read
// big-endian, hi then lo's five bytes are FiveTuple::ToBytes() of the
// tuple, and each granularity's key is a prefix of them: host = hi >> 32,
// channel = hi, socket/flow = both words. The switch packs it once per
// packet and carries it through the cells and the NIC's group state.
struct InitiatorKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const InitiatorKey&) const = default;

  // Packs a tuple already in initiator orientation.
  static InitiatorKey Pack(const FiveTuple& t) {
    return {(static_cast<uint64_t>(t.src_ip) << 32) | t.dst_ip,
            (static_cast<uint64_t>(t.src_port) << 24) | (static_cast<uint64_t>(t.dst_port) << 8) |
                t.protocol};
  }

  // The packet's key: its five-tuple as sent by the flow initiator.
  static InitiatorKey Of(const PacketRecord& pkt) { return Pack(pkt.InitiatorTuple()); }

  // The number of leading key bytes that granularity `g`'s key keeps.
  static int PrefixBytes(Granularity g) {
    return g == Granularity::kHost ? 4 : g == Granularity::kChannel ? 8 : 13;
  }

  // The words of granularity `g`'s prefix, the rest zero: two keys agree at
  // `g` exactly when their prefixes are equal.
  InitiatorKey Prefix(Granularity g) const {
    switch (g) {
      case Granularity::kHost:
        return {hi & 0xffffffff00000000ull, 0};
      case Granularity::kChannel:
        return {hi, 0};
      default:
        return *this;
    }
  }

  // Crc32 of all 13 key bytes with `seed` (the FG index, the fgkey builtin).
  uint32_t Crc(uint32_t seed) const {
    return ~Crc32StepBe40(Crc32StepBe64(~seed, hi), lo);
  }

  // GroupKey::Of(*this, g).Hash(), without building the bytes.
  uint32_t Hash(Granularity g) const;
};

struct GroupKey {
  Granularity granularity = Granularity::kFlow;
  uint8_t length = 0;               // Valid bytes.
  std::array<uint8_t, 13> bytes{};  // Max = five-tuple.

  bool operator==(const GroupKey& other) const {
    return granularity == other.granularity && length == other.length &&
           std::memcmp(bytes.data(), other.bytes.data(), length) == 0;
  }
  bool operator!=(const GroupKey& other) const { return !(*this == other); }

  // The key of `granularity`: the prefix of the initiator key's bytes that
  // the granularity projects to (host = the initiator's IP; channel = the
  // ordered initiator -> responder IP pair; socket/flow = the whole
  // five-tuple). No direction is needed at any granularity.
  static GroupKey Of(const InitiatorKey& key, Granularity granularity);

  // The hash seed of `granularity`'s keys.
  static uint32_t Seed(Granularity granularity) {
    return static_cast<uint32_t>(granularity) * 0x1003fu;
  }

  // 32-bit CRC hash, as computed by the Tofino hash engine; the same value
  // is shipped to the NIC (hash-reuse optimization, §6.2).
  uint32_t Hash() const;

  std::string ToString() const;
};

inline uint32_t InitiatorKey::Hash(Granularity g) const {
  const uint32_t seed = GroupKey::Seed(g);
  switch (g) {
    case Granularity::kHost:
      return ~Crc32StepBe32(~seed, static_cast<uint32_t>(hi >> 32));
    case Granularity::kChannel:
      return ~Crc32StepBe64(~seed, hi);
    default:
      return Crc(seed);
  }
}

struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const { return key.Hash(); }
};

}  // namespace superfe

#endif  // SUPERFE_SWITCHSIM_GROUP_KEY_H_

#include "streaming/hyperloglog.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/hash.h"

namespace superfe {

HyperLogLog::HyperLogLog(int index_bits) : index_bits_(index_bits) {
  assert(index_bits >= 4 && index_bits <= 16);
  registers_.assign(1u << index_bits, 0);
}

void HyperLogLog::AddHash(uint32_t hash) {
  const uint32_t index = hash >> (32 - index_bits_);
  const uint32_t tail = hash << index_bits_;
  // Leading-zero count of the remaining bits, +1 (rank of first set bit).
  const int value_bits = 32 - index_bits_;
  uint8_t rank;
  if (tail == 0) {
    rank = static_cast<uint8_t>(value_bits + 1);
  } else {
    rank = static_cast<uint8_t>(std::min(__builtin_clz(tail) + 1, value_bits + 1));
  }
  registers_[index] = std::max(registers_[index], rank);
}

void HyperLogLog::AddU64(uint64_t value) {
  AddHash(static_cast<uint32_t>(Mix64(value) >> 32));
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  double alpha;
  switch (index_bits_) {
    case 4:
      alpha = 0.673;
      break;
    case 5:
      alpha = 0.697;
      break;
    case 6:
      alpha = 0.709;
      break;
    default:
      alpha = 0.7213 / (1.0 + 1.079 / m);
      break;
  }

  double inverse_sum = 0.0;
  int zeros = 0;
  for (uint8_t r : registers_) {
    inverse_sum += std::exp2(-static_cast<double>(r));
    if (r == 0) {
      ++zeros;
    }
  }
  double estimate = alpha * m * m / inverse_sum;

  if (estimate <= 2.5 * m && zeros != 0) {
    // Small-range correction: linear counting.
    estimate = m * std::log(m / static_cast<double>(zeros));
  } else if (estimate > (1.0 / 30.0) * 4294967296.0) {
    // Large-range correction for 32-bit hashes.
    estimate = -4294967296.0 * std::log1p(-estimate / 4294967296.0);
  }
  return estimate;
}

}  // namespace superfe

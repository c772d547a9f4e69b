// HyperLogLog cardinality estimation (§6.1, f_card).
//
// A 32-bit hash is computed per element: the first k bits index a bucket,
// the remaining 32-k bits feed a leading-zero count; the harmonic mean of
// bucket maxima yields the estimate, with the standard small/large range
// corrections from Flajolet et al.
#ifndef SUPERFE_STREAMING_HYPERLOGLOG_H_
#define SUPERFE_STREAMING_HYPERLOGLOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace superfe {

class HyperLogLog {
 public:
  // 2^index_bits buckets; 4 <= index_bits <= 16. The paper's FE-NIC keeps
  // 2^k one-byte states per group.
  explicit HyperLogLog(int index_bits = 10);

  // Adds an element by its 32-bit hash (the switch-computed hash can be
  // reused here, per the §6.2 optimization).
  void AddHash(uint32_t hash);

  // Convenience: hashes a 64-bit value with Mix64 then adds.
  void AddU64(uint64_t value);

  // Bulk inserts, register-identical to elementwise Add calls (the register
  // max is order-independent); AddU64Batch vectorizes the Mix64 hashing.
  void AddHashBatch(const uint32_t* hashes, size_t n);
  void AddU64Batch(const uint64_t* values, size_t n);

  // Bias-corrected cardinality estimate.
  double Estimate() const;

  int index_bits() const { return index_bits_; }
  uint32_t StateBytes() const { return static_cast<uint32_t>(registers_.size()); }

 private:
  int index_bits_;
  std::vector<uint8_t> registers_;
};

}  // namespace superfe

#endif  // SUPERFE_STREAMING_HYPERLOGLOG_H_

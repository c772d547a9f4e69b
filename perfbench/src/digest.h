// Output check for the benchmark: an order-independent digest of a run's
// feature vectors.
//
// Each vector hashes its group key, emission timestamp and values; the
// digest is the multiset (sum + count) of those hashes, so shapes that emit
// the same vectors in a different order (serial vs sharded, one-shot vs
// daemon epochs) agree. Values are rounded to the 6 significant digits that
// superfe_run's CSV prints, so the ULP-level differences the batch-kernel
// contract allows (streaming/batch.h) still match, while a change visible in
// the CSV does not.
#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/feature_vector.h"

namespace perfbench {

struct Digest {
  uint64_t sum = 0;      // Wrapping sum of per-vector hashes.
  uint64_t vectors = 0;  // Multiset cardinality.

  void Add(uint64_t vector_hash) {
    sum += vector_hash;
    ++vectors;
  }
  bool operator==(const Digest& other) const {
    return sum == other.sum && vectors == other.vectors;
  }
  bool operator!=(const Digest& other) const { return !(*this == other); }
  std::string ToString() const;
};

uint64_t VectorHash(const superfe::FeatureVector& vector);
Digest DigestOf(const std::vector<superfe::FeatureVector>& vectors);

// Keeps every vector (a move, so the pipeline pays one push_back per
// vector); the digest is computed after the timed region.
class CollectSink : public superfe::FeatureSink {
 public:
  void OnFeatureVector(superfe::FeatureVector&& vector) override {
    vectors_.push_back(std::move(vector));
  }
  void Reserve(size_t n) { vectors_.reserve(n); }
  std::vector<superfe::FeatureVector>& vectors() { return vectors_; }
  // Digest of everything collected, then drops the vectors.
  Digest TakeDigest();

 private:
  std::vector<superfe::FeatureVector> vectors_;
};

// Hashes each vector on arrival and keeps nothing: the sink for runs that
// measure memory, where holding the output would be counted as pipeline
// memory.
class DigestSink : public superfe::FeatureSink {
 public:
  void OnFeatureVector(superfe::FeatureVector&& vector) override {
    digest_.Add(VectorHash(vector));
  }
  const Digest& digest() const { return digest_; }

 private:
  Digest digest_;
};

// Shows that the digest catches the two defects a broken pipeline would
// produce: one value changed beyond CSV precision, and one vector dropped.
// Returns true when both perturbed copies of `vectors` digest differently
// from `original` (DigestOf(vectors)); the vectors are restored before
// returning.
bool DigestDetectsDefects(std::vector<superfe::FeatureVector>& vectors, const Digest& original,
                          std::string* detail);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_

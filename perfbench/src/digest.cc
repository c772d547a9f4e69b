#include "digest.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

// splitmix64 finalizer: spreads the FNV state so the multiset sum does not
// cancel structured differences.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The value as superfe_run's CSV prints it: ostream's default for double is
// printf("%g") at precision 6, which is what to_chars(general, 6) produces.
uint64_t HashValue(uint64_t h, double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 6);
  h = Fnv(h, buf, static_cast<size_t>(res.ptr - buf));
  return Fnv(h, ",", 1);
}

}  // namespace

std::string Digest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx/%llu", static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(vectors));
  return buf;
}

uint64_t VectorHash(const superfe::FeatureVector& vector) {
  uint64_t h = kFnvOffset;
  const uint8_t granularity = static_cast<uint8_t>(vector.group.granularity);
  h = Fnv(h, &granularity, 1);
  h = Fnv(h, &vector.group.length, 1);
  h = Fnv(h, vector.group.bytes.data(), vector.group.length);
  h = Fnv(h, &vector.timestamp_ns, sizeof(vector.timestamp_ns));
  for (double v : vector.values) {
    h = HashValue(h, v);
  }
  return Mix(h);
}

Digest DigestOf(const std::vector<superfe::FeatureVector>& vectors) {
  // The digest is a sum, so slices can be hashed on separate threads; it
  // runs outside every timed region, and formatting ~10^7 values serially
  // would crowd out timed reps.
  const size_t threads = std::clamp<size_t>(vectors.size() / 4096, 1, 4);
  std::vector<Digest> parts(threads);
  const auto hash_slice = [&](size_t t) {
    const size_t begin = vectors.size() * t / threads;
    const size_t end = vectors.size() * (t + 1) / threads;
    for (size_t i = begin; i < end; ++i) {
      parts[t].Add(VectorHash(vectors[i]));
    }
  };
  std::vector<std::thread> workers;
  for (size_t t = 1; t < threads; ++t) {
    workers.emplace_back(hash_slice, t);
  }
  hash_slice(0);
  for (auto& worker : workers) {
    worker.join();
  }
  Digest d;
  for (const Digest& part : parts) {
    d.sum += part.sum;
    d.vectors += part.vectors;
  }
  return d;
}

Digest CollectSink::TakeDigest() {
  const Digest d = DigestOf(vectors_);
  vectors_.clear();
  return d;
}

bool DigestDetectsDefects(std::vector<superfe::FeatureVector>& vectors, const Digest& original,
                          std::string* detail) {
  superfe::FeatureVector* target = nullptr;
  for (auto& v : vectors) {
    if (!v.values.empty() && std::isfinite(v.values.front())) {
      target = &v;
      break;
    }
  }
  if (target == nullptr) {
    *detail = "no finite value to perturb";
    return false;
  }
  // One part in 10^4 of the value: beyond the CSV's 6 significant digits.
  const double saved = target->values.front();
  target->values.front() = saved + std::max(std::fabs(saved), 1.0) * 1e-4;
  const Digest changed = DigestOf(vectors);
  target->values.front() = saved;

  superfe::FeatureVector last = std::move(vectors.back());
  vectors.pop_back();
  const Digest dropped = DigestOf(vectors);
  vectors.push_back(std::move(last));

  *detail = "value_changed=" + std::string(changed != original ? "detected" : "missed") +
            " vector_dropped=" + (dropped != original ? "detected" : "missed");
  return changed != original && dropped != original;
}

}  // namespace perfbench

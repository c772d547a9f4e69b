#include "policy/functions.h"

#include <algorithm>

namespace superfe {

ReduceCost CostOfReduce(const ReduceSpec& spec) {
  ReduceCost c;
  switch (spec.fn) {
    case ReduceFn::kSum:
    case ReduceFn::kMax:
    case ReduceFn::kMin:
      c = {/*state*/ 4, /*alu*/ 1, /*div*/ 0, /*mem*/ 1, /*naive*/ 0};
      break;
    case ReduceFn::kMean:
      c = {12, 4, 1, 3, 8};
      break;
    case ReduceFn::kVar:
      c = {12, 8, 2, 3, 8};
      break;
    case ReduceFn::kStd:
      // Variance plus an integer square root at emission; amortized here.
      c = {12, 10, 2, 3, 8};
      break;
    case ReduceFn::kKur:
    case ReduceFn::kSkew:
      // Third/fourth central moments (Pébay updates).
      c = {20, 18, 4, 5, 8};
      break;
    case ReduceFn::kMag:
    case ReduceFn::kRadius:
      // Two Welford states (one per direction).
      c = {24, 10, 2, 6, 16};
      break;
    case ReduceFn::kCov:
    case ReduceFn::kPcc:
      // Two Welford states + residual-product accumulator.
      c = {28, 14, 3, 7, 16};
      break;
    case ReduceFn::kCard:
      // HyperLogLog with 64 one-byte buckets; hash is reused from the
      // switch so only clz + max remain.
      c = {64, 4, 0, 2, 8};
      break;
    case ReduceFn::kArray: {
      const uint32_t limit = spec.array_limit != 0 ? spec.array_limit : 5000;
      c = {limit * 2, 1, 0, 1, 8};
      break;
    }
    case ReduceFn::kHist:
    case ReduceFn::kPdf:
    case ReduceFn::kCdf:
      // Bucket index: the FE-NIC rounds the bin width up to a power of two
      // internally, so indexing is a shift, never a division.
      c = {OutputWidth(spec) * 4, 3, 0, 1, 8};
      break;
    case ReduceFn::kPercent:
      // Log-scale 32-bucket histogram; index via clz, no division.
      c = {32 * 4, 3, 0, 1, 8};
      break;
  }
  if (spec.decay_lambda > 0.0) {
    // Damped variants additionally keep the last timestamp and apply the
    // 2^(-lambda dt) factor (shift + multiply on fixed point).
    c.state_bytes += 4;
    c.alu_ops += 4;
    c.mem_words += 1;
  }
  return c;
}

MapCost CostOfMap(MapFn fn) {
  switch (fn) {
    case MapFn::kOne:
      return {0, 1, 0, 0};
    case MapFn::kIpt:
      return {4, 2, 0, 1};  // Last-timestamp state.
    case MapFn::kSpeed:
      return {4, 3, 1, 1};  // size / ipt.
    case MapFn::kBurst:
      return {8, 3, 0, 2};  // Direction + run length.
    case MapFn::kDirection:
      return {0, 1, 0, 0};
  }
  return {};
}

uint32_t OutputWidth(const ReduceSpec& spec) {
  switch (spec.fn) {
    case ReduceFn::kHist:
    case ReduceFn::kPdf:
    case ReduceFn::kCdf:
      return std::max<uint32_t>(static_cast<uint32_t>(spec.param1), 1);
    case ReduceFn::kArray:
      return spec.array_limit != 0 ? spec.array_limit : 5000;
    default:
      return 1;
  }
}

}  // namespace superfe

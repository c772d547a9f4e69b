// Abstract syntax of SuperFE feature-extraction policies (§4, Tables 1 & 5).
//
// A policy is an ordered pipeline of dataflow operators applied to
// `pktstream`: filter -> groupby -> map* -> reduce* -> synthesize* -> collect.
// The compiler (policy/compile.h) partitions it across FE-Switch and FE-NIC.
#ifndef SUPERFE_POLICY_AST_H_
#define SUPERFE_POLICY_AST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/packet.h"

namespace superfe {

// ---- Granularities (Table 5) ----
//
// Grouping keys ordered coarse -> fine. `host` groups by source IP; `channel`
// by the IP pair; `socket` by the five-tuple with direction recorded; `flow`
// by the five-tuple. Dependency chains (§5.1) require the listed order.
enum class Granularity : uint8_t {
  kHost = 0,
  kChannel = 1,
  kSocket = 2,
  kFlow = 3,
};

const char* GranularityName(Granularity g);

// True if `coarse` is equal to or strictly coarser than `fine` on the
// host -> channel -> socket/flow dependency chain.
bool IsCoarserOrEqual(Granularity coarse, Granularity fine);

// ---- Filter predicates ----

enum class PredField : uint8_t {
  kProtocol,
  kSrcPort,
  kDstPort,
  kSrcIp,
  kDstIp,
  kSize,
  kTcpFlags,
};

enum class PredOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

struct Predicate {
  PredField field = PredField::kProtocol;
  PredOp op = PredOp::kEq;
  uint64_t value = 0;

  bool Matches(const PacketRecord& pkt) const;
  std::string ToString() const;
};

// Conjunction of predicates; empty means "accept everything".
struct FilterExpr {
  std::vector<Predicate> conjuncts;

  bool Matches(const PacketRecord& pkt) const;
  std::string ToString() const;
};

// ---- Mapping functions (Table 5) ----

enum class MapFn : uint8_t {
  kOne,        // f_one: constant 1.
  kIpt,        // f_ipt: inter-packet time within the group (ns).
  kSpeed,      // f_speed: size / inter-packet time (bytes per second).
  kBurst,      // f_burst: length of the current same-direction run.
  kDirection,  // f_direction: src value multiplied by the direction sign.
};

const char* MapFnName(MapFn fn);

// ---- Reducing functions (Table 5) ----

enum class ReduceFn : uint8_t {
  kSum,
  kMean,
  kVar,
  kStd,
  kMax,
  kMin,
  kKur,
  kSkew,
  kMag,      // Magnitude of bidirectional sequences.
  kRadius,   // Radius of bidirectional sequences.
  kCov,      // Covariance between bidirectional sequences.
  kPcc,      // Correlation coefficient of bidirectional sequences.
  kCard,     // Cardinality (HyperLogLog).
  kArray,    // Pack values as an array.
  kPdf,      // Probability density estimate (histogram-based).
  kCdf,      // Cumulative distribution estimate (histogram-based).
  kHist,     // ft_hist{width, bins}.
  kPercent,  // ft_percent{q} quantile estimate.
};

const char* ReduceFnName(ReduceFn fn);

// True for the bidirectional 2D statistics (mag/radius/cov/pcc), which split
// the source stream by packet direction.
bool IsBidirectional(ReduceFn fn);

// True for histogram-backed functions that need width/bins parameters.
bool IsHistogramBased(ReduceFn fn);

// The widest feature slot a policy may declare: ft_hist/f_pdf/f_cdf bins,
// f_array limits and ft_sample lengths are integers in [1, kMaxSlotWidth]
// (docs/POLICY_GUIDE.md). The widest shipped slot is 5,000 values.
constexpr uint32_t kMaxSlotWidth = 65536;

// True when v is an integer in [1, kMaxSlotWidth]: a width that converts to
// uint32_t exactly.
bool IsSlotWidth(double v);

// One reducing function application with its parameters.
struct ReduceSpec {
  ReduceFn fn = ReduceFn::kSum;
  // ft_hist / f_pdf / f_cdf: bucket width and count. ft_percent: param0 = q.
  double param0 = 0.0;
  double param1 = 0.0;
  // f_array: maximum packed length (0 = the default, 5000).
  uint32_t array_limit = 0;
  // Damped-window extension: 2^(-lambda dt) decay; 0 disables (plain
  // streaming statistics). See DESIGN.md §5.
  double decay_lambda = 0.0;

  std::string ToString() const;
};

// ---- Synthesizing functions (Table 5) ----

enum class SynthFn : uint8_t {
  kMarker,  // Direction-change markers over an array feature (CUMUL-style).
  kNorm,    // Normalize an array to [-1, 1] by its max magnitude.
  kSample,  // ft_sample{n}: resample an array to fixed length n.
};

const char* SynthFnName(SynthFn fn);

// ---- Operators (Table 1) ----

struct FilterOp {
  FilterExpr expr;
};

// groupby with a dependency chain of one or more granularities; subsequent
// map/reduce ops apply at every granularity in the chain (the Kitsune /
// HELAD pattern of identical features per granularity).
struct GroupByOp {
  std::vector<Granularity> chain;  // Sorted coarse -> fine by the validator.
};

struct MapOp {
  std::string dst;  // New field name.
  std::string src;  // Source field name, or "_" for none.
  MapFn fn = MapFn::kOne;
};

struct ReduceOp {
  std::string src;                // Field to aggregate.
  std::vector<ReduceSpec> specs;  // The [rf] list.
  // Restricts this reduce to one granularity of the chain; unset = apply at
  // every granularity (extension; Kitsune computes different feature sets
  // per granularity, §8.2).
  std::optional<Granularity> at;
};

struct SynthOp {
  std::string src;  // Feature field produced by an earlier reduce.
  SynthFn fn = SynthFn::kNorm;
  double param0 = 0.0;  // ft_sample: target length.
};

// collect(u): u is either per-packet or per-group-of-granularity.
struct CollectOp {
  bool per_packet = false;
  Granularity unit = Granularity::kFlow;  // Meaningful when !per_packet.
};

using Operator = std::variant<FilterOp, GroupByOp, MapOp, ReduceOp, SynthOp, CollectOp>;

// ---- Policy ----

struct Policy {
  std::string name;
  std::vector<Operator> ops;
  // Original DSL text when parsed from text (used for the Table 3 LoC
  // accounting); empty for builder-constructed policies.
  std::string source_text;

  // Number of non-empty source lines (Table 3 metric); falls back to the
  // operator count for builder-made policies.
  int LinesOfCode() const;

  // Pretty-prints the pipeline (normalized DSL form).
  std::string ToString() const;
};

}  // namespace superfe

#endif  // SUPERFE_POLICY_AST_H_

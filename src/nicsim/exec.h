// Feature-computation engine: executes the NIC side of a compiled policy
// (map / reduce / synthesize) over MGPV cells, maintaining per-group state
// with the streaming algorithms of §6.1.
//
// The engine is shared by FE-NIC (which adds the NFP cost model on top) and
// by the software-baseline extractor (which runs it with exact arithmetic).
#ifndef SUPERFE_NICSIM_EXEC_H_
#define SUPERFE_NICSIM_EXEC_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/status.h"
#include "core/feature_vector.h"
#include "nicsim/group_table.h"
#include "policy/compile.h"
#include "streaming/damped.h"
#include "streaming/damped_lanes.h"
#include "streaming/histogram.h"
#include "streaming/hyperloglog.h"
#include "streaming/moments.h"
#include "streaming/welford.h"
#include "switchsim/evict.h"

namespace superfe {

struct ExecOptions {
  // True: run the arithmetic the NFP actually uses (integer Welford with
  // division elimination, fixed-point damped windows). False: exact
  // double-precision (the standard feature definitions of Fig 10).
  bool nic_arithmetic = true;

  // Explicit damped-window arithmetic override; unset derives it from
  // nic_arithmetic. kFloat32 reproduces the original Kitsune implementation
  // for the Fig 10 comparison.
  std::optional<DampedMode> damped_mode;

  DampedMode EffectiveDampedMode() const {
    if (damped_mode.has_value()) {
      return *damped_mode;
    }
    return nic_arithmetic ? DampedMode::kNicFixedPoint : DampedMode::kExactDouble;
  }
};

namespace exec_internal {

struct SumAgg {
  double sum = 0.0;
};
// f_min and f_max share one state (batchkern::MinMax yields both).
struct MinMaxAgg {
  bool any = false;
  double min = 0.0;
  double max = 0.0;
};
struct ArrayAgg {
  uint32_t limit = 0;
  std::vector<double> values;
};
// Log2-bucketed histogram used by ft_percent (index via clz; §6.1).
// 32 buckets x 4 bytes, matching the cost registry and the generated
// Micro-C state layout.
struct LogHist {
  std::array<uint32_t, 32> buckets{};
  uint64_t total = 0;

  // Bulk insert via the vectorized log2 bucketer; bucket-identical to
  // elementwise inserts.
  void AddBatch(const double* v, size_t n);
};

}  // namespace exec_internal

// The per-group state a reducing function reads. Collected features whose
// state family, source field, decay λ and family parameters agree share one
// state (ExecPlan's owner table); docs/ARCHITECTURE.md, "Per-statistic group
// state".
enum class StateFamily : uint8_t {
  kSum,        // Plain f_sum.
  kMinMax,     // f_min, f_max.
  kWelford,    // Undamped f_mean, f_var, f_std.
  kDamped1D,   // Damped f_sum, f_mean, f_var, f_std at flow granularity.
  kDamped2D,   // f_mag, f_radius, f_cov, f_pcc, plus the damped 1D
               // statistics at direction-recording granularities.
  kMoments,    // f_skew, f_kur.
  kCard,       // f_card.
  kArray,      // f_array (per limit).
  kHist,       // ft_hist, f_pdf, f_cdf (per bucket width and count).
  kPercent,    // ft_percent (one log histogram serves every q).
};

// A collected feature of an undamped owner compiled to one write: the
// statistic `fn` of the state `owner` goes to `offset` of its
// granularity's block, `width` values wide (f_array, ft_hist, f_pdf and
// f_cdf are multi-value; a short f_array leaves zeros). A synthesized
// slot's op emits the raw values through its synthesize chain instead, for
// an owner of any family. docs/ARCHITECTURE.md, "Emit ops".
struct EmitOp {
  uint32_t owner = 0;  // Index into the granularity's owners.
  uint32_t slot = 0;   // Index into the granularity's slots.
  ReduceFn fn = ReduceFn::kSum;
  double q = 0.0;  // ft_percent's quantile.
  uint32_t offset = 0;
  uint32_t width = 1;
};

// A collected feature of a damped owner: one value of the lane statistics
// (damped_lanes::Stats' output at `stat`) goes to `offset`.
struct LaneOp {
  uint32_t stat = 0;
  uint32_t offset = 0;
};

// One per-group state of an undamped reducing-function family. (The damped
// families are lanes of the group's damped block: damped_lanes.h.)
class Reducer {
 public:
  // Builds the state of `spec`'s family, which must be undamped.
  Reducer(const ReduceSpec& spec, const ExecOptions& options, bool directional);

  // The state family `spec` reads at a granularity that does (or does not)
  // record direction. At direction-recording granularities
  // (host/channel/socket, Table 5) the damped 1D statistics are
  // directional: each direction's sub-stream is tracked separately
  // (Kitsune's HH/HpHp semantics) in a two-sided state, and emission reports
  // the current packet's side. Directed sub-streams stay in timestamp order
  // through MGPV, since each lives inside one coarse-granularity group.
  static StateFamily Family(const ReduceSpec& spec, bool directional);

  // Feeds n samples in arrival order (one group run of a sorted batch). Any
  // split of a run gives the same bits: the double families (sum, Welford,
  // moments) fold value by value, and the others are integer-exact.
  void UpdateBatch(const double* values, size_t n);

  // Feeds one sample: a one-value run.
  void Update(double value) { UpdateBatch(&value, 1); }

  // Writes the n ops, all reading this state, at their offsets of `out`
  // (zero-filled by the caller). The state is visited once.
  void EmitOps(const EmitOp* ops, size_t n, double* out) const;

  // Appends the OutputWidth(spec) feature values of `spec`, any member of
  // this state's family: EmitOps with one op.
  void EmitAs(const ReduceSpec& spec, std::vector<double>& out) const;

 private:
  std::variant<exec_internal::SumAgg, exec_internal::MinMaxAgg, WelfordStats, NicWelfordStats,
               StreamingMoments, HyperLogLog, exec_internal::ArrayAgg, FixedHistogram,
               exec_internal::LogHist>
      impl_;
};

// Post-processing (synthesize) of an emitted feature block.
std::vector<double> ApplySynth(const SynthStep& step, std::vector<double> values);

// Index-compiled form of a NicProgram (field names resolved to slots).
// Reducer lists are per granularity: reduces may be restricted to one
// granularity of the chain (Kitsune computes different feature sets per
// granularity).
struct ExecPlan {
  static constexpr int kFieldSize = 0;
  static constexpr int kFieldTstamp = 1;     // Nanoseconds.
  static constexpr int kFieldDirection = 2;  // +1 / -1.
  // Hash of the packet's finest-granularity group key: lets f_card count
  // distinct finer groups per coarse group ("the number of TCP flows that
  // each IP address establishes", §4.1).
  static constexpr int kFieldFgKey = 3;

  struct MapStep {
    int dst = 0;
    int src = -1;  // -1 for "_".
    MapFn fn = MapFn::kOne;
  };
  struct ReduceStep {
    int src = 0;
    ReduceSpec spec;      // The first member's spec; builds the state.
    bool damped = false;  // A lane of the damped block, else a Reducer.
    uint32_t state = 0;   // Index into GroupState::reducers, or the lane's
                          // place in damped_lanes::Stats' output.
  };
  struct GranularityPlan {
    Granularity granularity = Granularity::kFlow;
    // Owner table: one state per distinct (source field, state family, λ,
    // family parameters), in first-use order.
    std::vector<ReduceStep> owners;
    std::vector<FeatureSlot> slots;  // Collected features, layout order.
    uint32_t width = 0;              // Sum of the slots' widths.
    // The undamped owners; GroupState::reducers is parallel to it.
    std::vector<uint32_t> undamped;
    // The damped owners as lanes: one window per λ (first-use order), runs
    // fed by source fields (docs/ARCHITECTURE.md, "Damped lanes").
    damped_lanes::Plan lanes;
    // One per unsynthesized slot: of undamped owners grouped by owner (an
    // owner's ops are contiguous), of damped owners in layout order; then
    // one per synthesized slot, in layout order.
    std::vector<EmitOp> emit_ops;
    std::vector<LaneOp> lane_ops;
    std::vector<EmitOp> synthesized_ops;
  };

  int field_count = 4;
  std::vector<MapStep> maps;
  std::vector<GranularityPlan> per_granularity;  // Chain order.
  uint32_t width = 0;  // Feature-vector width, all granularities.
  // True when any map or reduce reads the fgkey builtin: the per-cell CRC
  // is computed only then, lazily, per column (PacketBatchSoA::EnsureFgHash).
  bool uses_fg_key = false;

  static Result<ExecPlan> FromProgram(const NicProgram& program);
};

// SoA view of one worker batch of MGPV cells. The initiator-oriented key
// chain makes every coarser granularity's key a prefix of the packed FG key
// (host = hi >> 32, channel = hi, socket/flow = both words), so a stable
// sort by a granularity's prefix makes that granularity's groups contiguous
// runs, delimited by integer prefix compares on the key words — while
// keeping each run internally in arrival order (the ipt/burst recurrences
// and the in-order folds are order-dependent). Assemble()
// leaves the columns in arrival order; callers SortByPrefix() per
// granularity before walking runs. Reused across batches to amortize
// allocations.
struct PacketBatchSoA {
  // Sorted views, all rows() long. `cells` keeps per-row access to the
  // original cell for group bookkeeping.
  std::vector<const MgpvCell*> cells;
  std::vector<uint64_t> key_hi;  // The cells' fg_key.hi.
  std::vector<uint64_t> key_lo;  // The cells' fg_key.lo.
  std::vector<double> pkt_size;
  std::vector<double> tstamp_ns;
  std::vector<double> dir_sign;  // ±1.
  std::vector<double> t_seconds;
  std::vector<double> fg_hash;  // Lazy; see EnsureFgHash.
  std::vector<Direction> direction;

  // Scratch shared by UpdateGroupBatch calls over this batch: per-field
  // columns for map outputs.
  std::vector<std::vector<double>> field_scratch;

  size_t rows() const { return cells.size(); }

  // Rebuilds the view from the cells of `count` reports, columns in
  // arrival order.
  void Assemble(const MgpvReport* reports, size_t count);

  // Stable-sorts the columns by the first `prefix_bytes` key bytes (always
  // from arrival order, so every run stays arrival-ordered internally).
  // Skips the sort when the rows arrived in prefix order: it would be the
  // identity permutation.
  void SortByPrefix(int prefix_bytes);

  // Fills fg_hash with the per-cell FG-key CRC (the fgkey builtin), cached
  // across equal-key runs. Idempotent per Assemble.
  void EnsureFgHash();

  // True when rows a and b agree on the first `prefix_bytes` key bytes.
  bool SamePrefix(size_t a, size_t b, int prefix_bytes) const;

  // Index, into the Assemble() call's reports, of the report row `row`
  // came from.
  uint32_t ReportOf(size_t row) const { return report_[row]; }

 private:
  // Writes every column of row `row` from `cell` of report `report`.
  void SetRow(size_t row, const MgpvCell& cell, uint32_t report);

  // SortByPrefix for a compile-time prefix.
  template <int kPrefixBytes>
  void SortBy();

  // Writes the rows in order_ from the arrival-order copies.
  void Gather();

  std::vector<uint32_t> report_;  // Each row's report index.
  std::vector<uint32_t> order_;   // Each sorted row's arrival index.
  // The arrival order, copied from the columns before the first sort that
  // permutes them.
  std::vector<const MgpvCell*> cells_unsorted_;
  std::vector<uint64_t> hi_unsorted_;
  std::vector<uint64_t> lo_unsorted_;
  std::vector<uint32_t> report_unsorted_;
  int sorted_prefix_ = 0;  // 0 = arrival order.
  bool arrival_order_ = true;  // The columns are in arrival order.
  bool fg_hash_valid_ = false;
};

// Per-group execution state.
struct GroupState {
  // Mapping-function state. Inter-packet time is tracked per direction:
  // directional jitter is Kitsune's semantics, and each direction's
  // sub-stream stays in timestamp order through MGPV (cells of one
  // direction share a coarse-granularity group).
  double last_tstamp_ns[2] = {-1.0, -1.0};  // Indexed by Direction.
  int last_dir = 0;
  DampedMode damped_mode = DampedMode::kExactDouble;
  double burst_len = 0.0;

  std::vector<Reducer> reducers;  // Parallel to the granularity plan's undamped.
  // The damped owners' lane block (damped_lanes.h); null without any.
  std::unique_ptr<double[]> lanes;

  // Bookkeeping for emission.
  uint64_t packets = 0;
  uint64_t last_seen_ns = 0;
  InitiatorKey last_fg_key;  // For deriving coarser keys at emission.
  Direction last_direction = Direction::kForward;

  // Creates state for granularity index `gi` of the plan's chain.
  static GroupState Make(const ExecPlan& plan, size_t gi, const ExecOptions& options);
};

// Updates one group (at granularity index `gi`) with the batch rows
// [begin, end) — one contiguous run of the group's cells, in arrival order.
// The only function that changes group state: batch collection feeds whole
// runs, per-packet collection and the software baseline one-row runs. Maps
// run row-major (the ipt/burst recurrences are inherently sequential); each
// undamped owner then consumes its source column as one UpdateBatch call,
// and the damped lanes take the rows in order. Any split of a group's cells
// into runs gives the same bits (docs/ARCHITECTURE.md, "Exactness
// contract").
void UpdateGroupBatch(const ExecPlan& plan, size_t gi, GroupState& group,
                      PacketBatchSoA& soa, size_t begin, size_t end);

// Emits the group's feature block for granularity index `gi` through the
// plan's emit ops: every undamped slot from its owner state, every damped
// one from the lane statistics, synthesize chains applied, appended to
// `out` (grown once, then written at the ops' offsets).
void EmitGroupFeatures(const ExecPlan& plan, size_t gi, const GroupState& group,
                       std::vector<double>& out);

// Per-granularity group tables of one executor, in chain order.
using GroupTables = std::vector<std::unique_ptr<GroupTable<GroupState>>>;

// Builds one feature vector in the plan's layout, granularity by
// granularity. groups[gi] supplies granularity gi's block; a null entry is
// looked up in tables[gi] under the key `fg_key` derives there, and the
// block is zero-filled when that group is absent too. Per-packet collection
// passes every group the cell touched; a collect-unit vector passes only the
// unit group, with its last FG key.
FeatureVector AssembleVector(const ExecPlan& plan, const GroupTables& tables,
                             const std::array<const GroupState*, 4>& groups,
                             const InitiatorKey& fg_key, const GroupKey& key,
                             uint64_t timestamp_ns);

}  // namespace superfe

#endif  // SUPERFE_NICSIM_EXEC_H_

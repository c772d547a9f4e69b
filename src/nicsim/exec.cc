#include "nicsim/exec.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdlib>
#include <map>
#include <tuple>

#include "policy/functions.h"
#include "streaming/batch.h"

namespace superfe {

// ft_percent bucket index: floor(log2(v)) + 1, clamped (0 for v < 1).
// batchkern::Log2Bucket computes this from the IEEE exponent field — exact
// at power-of-two boundaries where an earlier std::log2-based bucketer
// could round across, and identical at every SIMD dispatch level.
namespace exec_internal {

void LogHist::AddBatch(const double* v, size_t n) {
  int32_t idx[256];
  while (n > 0) {
    const size_t m = n < 256 ? n : 256;
    batchkern::Log2BucketBatch(v, m, idx);
    for (size_t i = 0; i < m; ++i) {
      buckets[idx[i]]++;
    }
    total += m;
    v += m;
    n -= m;
  }
}

// The q-quantile estimate: the geometric midpoint of the first bucket whose
// cumulative count reaches q of the total.
double Percentile(const LogHist& hist, double q) {
  if (hist.total == 0) {
    return 0.0;
  }
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(hist.total);
  double cumulative = 0.0;
  for (size_t b = 0; b < hist.buckets.size(); ++b) {
    cumulative += hist.buckets[b];
    if (cumulative >= target) {
      // Bucket b covers [2^(b-1), 2^b); report its geometric midpoint.
      return b == 0 ? 0.5 : std::exp2(static_cast<double>(b) - 0.5);
    }
  }
  return 0.0;
}

}  // namespace exec_internal

namespace {

// std::visit over a set of lambdas.
template <typename... Fns>
struct Overloaded : Fns... {
  using Fns::operator()...;
};
template <typename... Fns>
Overloaded(Fns...) -> Overloaded<Fns...>;

}  // namespace

StateFamily Reducer::Family(const ReduceSpec& spec, bool directional) {
  const bool damped = spec.decay_lambda > 0.0;
  // Damped 1D statistics become two-sided (one side per direction) at
  // granularities that record direction.
  const StateFamily damped_1d = directional ? StateFamily::kDamped2D : StateFamily::kDamped1D;
  switch (spec.fn) {
    case ReduceFn::kSum:
      // Damped sum is the decayed linear sum — the "weight" feature of
      // Kitsune-style damped windows when applied to f_one.
      return damped ? damped_1d : StateFamily::kSum;
    case ReduceFn::kMax:
    case ReduceFn::kMin:
      return StateFamily::kMinMax;
    case ReduceFn::kMean:
    case ReduceFn::kVar:
    case ReduceFn::kStd:
      return damped ? damped_1d : StateFamily::kWelford;
    case ReduceFn::kKur:
    case ReduceFn::kSkew:
      return StateFamily::kMoments;
    case ReduceFn::kMag:
    case ReduceFn::kRadius:
    case ReduceFn::kCov:
    case ReduceFn::kPcc:
      return StateFamily::kDamped2D;  // lambda == 0 -> undamped.
    case ReduceFn::kCard:
      return StateFamily::kCard;
    case ReduceFn::kArray:
      return StateFamily::kArray;
    case ReduceFn::kHist:
    case ReduceFn::kPdf:
    case ReduceFn::kCdf:
      return StateFamily::kHist;
    case ReduceFn::kPercent:
      return StateFamily::kPercent;
  }
  return StateFamily::kSum;
}

Reducer::Reducer(const ReduceSpec& spec, const ExecOptions& options, bool directional) {
  switch (Family(spec, directional)) {
    case StateFamily::kSum:
      impl_ = exec_internal::SumAgg{};
      break;
    case StateFamily::kMinMax:
      impl_ = exec_internal::MinMaxAgg{};
      break;
    case StateFamily::kWelford:
      if (options.nic_arithmetic) {
        impl_ = NicWelfordStats();
      } else {
        impl_ = WelfordStats();
      }
      break;
    case StateFamily::kDamped1D:
    case StateFamily::kDamped2D:
      // ExecPlan gives every damped owner a lane instead.
      std::abort();
    case StateFamily::kMoments:
      impl_ = StreamingMoments();
      break;
    case StateFamily::kCard:
      impl_ = HyperLogLog(6);  // 64 one-byte buckets (§6.1).
      break;
    case StateFamily::kArray:
      impl_ = exec_internal::ArrayAgg{OutputWidth(spec), {}};
      break;
    case StateFamily::kHist:
      impl_ = FixedHistogram(std::max(spec.param0, 1e-9),
                             std::max(static_cast<int>(spec.param1), 1));
      break;
    case StateFamily::kPercent:
      impl_ = exec_internal::LogHist{};
      break;
  }
}

void Reducer::UpdateBatch(const double* values, size_t n) {
  if (n == 0) {
    return;
  }
  std::visit(
      Overloaded{
          [&](exec_internal::SumAgg& agg) {
            // A local accumulator: `values` may alias agg.sum for all the
            // compiler knows, which would store the sum every step.
            double sum = agg.sum;
            for (size_t i = 0; i < n; ++i) {
              sum += values[i];
            }
            agg.sum = sum;
          },
          [&](exec_internal::MinMaxAgg& agg) {
            double mn = 0.0, mx = 0.0;
            batchkern::MinMax(values, n, &mn, &mx);
            if (!agg.any || mn < agg.min) {
              agg.min = mn;
            }
            if (!agg.any || mx > agg.max) {
              agg.max = mx;
            }
            agg.any = true;
          },
          [&](WelfordStats& w) {
            for (size_t i = 0; i < n; ++i) {
              w.Add(values[i]);
            }
          },
          [&](NicWelfordStats& w) {
            for (size_t i = 0; i < n; ++i) {
              w.Add(static_cast<int64_t>(std::llround(values[i])));
            }
          },
          [&](StreamingMoments& moments) {
            for (size_t i = 0; i < n; ++i) {
              moments.Add(values[i]);
            }
          },
          [&](HyperLogLog& hll) {
            uint64_t rounded[256];
            for (size_t begin = 0; begin < n; begin += 256) {
              const size_t m = std::min<size_t>(n - begin, 256);
              for (size_t i = 0; i < m; ++i) {
                rounded[i] = static_cast<uint64_t>(std::llround(values[begin + i]));
              }
              hll.AddU64Batch(rounded, m);
            }
          },
          [&](exec_internal::ArrayAgg& agg) {
            for (size_t i = 0; i < n && agg.values.size() < agg.limit; ++i) {
              agg.values.push_back(values[i]);
            }
          },
          [&](FixedHistogram& hist) { hist.AddBatch(values, n); },
          [&](exec_internal::LogHist& hist) { hist.AddBatch(values, n); },
      },
      impl_);
}

void Reducer::EmitAs(const ReduceSpec& spec, std::vector<double>& out) const {
  const EmitOp op{.fn = spec.fn, .q = spec.param0, .width = OutputWidth(spec)};
  const size_t begin = out.size();
  out.resize(begin + op.width, 0.0);
  EmitOps(&op, 1, out.data() + begin);
}

void Reducer::EmitOps(const EmitOp* ops, size_t n, double* out) const {
  // Mean, variance and standard deviation of a Welford state.
  const auto write_moments = [&](double mean, double var) {
    for (size_t i = 0; i < n; ++i) {
      double& value = out[ops[i].offset];
      switch (ops[i].fn) {
        case ReduceFn::kMean:
          value = mean;
          break;
        case ReduceFn::kVar:
          value = var;
          break;
        default:  // kStd.
          value = std::sqrt(var);
          break;
      }
    }
  };
  // A multi-value op: the values, cut to its width.
  const auto write_values = [&](const EmitOp& op, const std::vector<double>& values) {
    std::copy_n(values.begin(), std::min<size_t>(values.size(), op.width), out + op.offset);
  };
  std::visit(
      Overloaded{
          [&](const exec_internal::SumAgg& agg) {
            for (size_t i = 0; i < n; ++i) {
              out[ops[i].offset] = agg.sum;
            }
          },
          [&](const exec_internal::MinMaxAgg& agg) {
            for (size_t i = 0; i < n; ++i) {
              out[ops[i].offset] = ops[i].fn == ReduceFn::kMax ? agg.max : agg.min;
            }
          },
          [&](const WelfordStats& w) { write_moments(w.mean(), w.variance()); },
          [&](const NicWelfordStats& w) { write_moments(w.mean(), w.variance()); },
          [&](const StreamingMoments& moments) {
            for (size_t i = 0; i < n; ++i) {
              out[ops[i].offset] =
                  ops[i].fn == ReduceFn::kKur ? moments.kurtosis() : moments.skewness();
            }
          },
          [&](const HyperLogLog& hll) {
            for (size_t i = 0; i < n; ++i) {
              out[ops[i].offset] = hll.Estimate();
            }
          },
          [&](const exec_internal::LogHist& hist) {
            for (size_t i = 0; i < n; ++i) {
              out[ops[i].offset] = exec_internal::Percentile(hist, ops[i].q);
            }
          },
          [&](const exec_internal::ArrayAgg& agg) {
            for (size_t i = 0; i < n; ++i) {
              write_values(ops[i], agg.values);
            }
          },
          [&](const FixedHistogram& hist) {
            for (size_t i = 0; i < n; ++i) {
              const EmitOp& op = ops[i];
              if (op.fn == ReduceFn::kHist) {
                const int bins = std::min<int>(hist.bins(), static_cast<int>(op.width));
                for (int b = 0; b < bins; ++b) {
                  out[op.offset + b] = static_cast<double>(hist.count(b));
                }
              } else {
                write_values(op, op.fn == ReduceFn::kPdf ? hist.Pdf() : hist.Cdf());
              }
            }
          },
      },
      impl_);
}

std::vector<double> ApplySynth(const SynthStep& step, std::vector<double> values) {
  switch (step.fn) {
    case SynthFn::kNorm: {
      double max_abs = 0.0;
      for (double v : values) {
        max_abs = std::max(max_abs, std::fabs(v));
      }
      if (max_abs > 0.0) {
        for (double& v : values) {
          v /= max_abs;
        }
      }
      return values;
    }
    case SynthFn::kSample: {
      const size_t n = static_cast<size_t>(std::max(step.param, 1.0));
      std::vector<double> out(n, 0.0);
      if (values.empty()) {
        return out;
      }
      if (values.size() == 1) {
        std::fill(out.begin(), out.end(), values[0]);
        return out;
      }
      for (size_t i = 0; i < n; ++i) {
        const double pos = static_cast<double>(i) * (values.size() - 1) /
                           (n > 1 ? static_cast<double>(n - 1) : 1.0);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, values.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        out[i] = values[lo] * (1.0 - frac) + values[hi] * frac;
      }
      return out;
    }
    case SynthFn::kMarker: {
      // CUMUL-style markers: cumulative sum sampled at every sign change.
      std::vector<double> out;
      double cumulative = 0.0;
      double prev_sign = 0.0;
      for (double v : values) {
        const double sign = v > 0.0 ? 1.0 : (v < 0.0 ? -1.0 : prev_sign);
        if (prev_sign != 0.0 && sign != prev_sign) {
          out.push_back(cumulative);
        }
        cumulative += v;
        prev_sign = sign;
      }
      out.push_back(cumulative);  // Final total.
      return out;
    }
  }
  return values;
}

namespace {

// The lane statistic a damped slot emits.
damped_lanes::Stat LaneStat(ReduceFn fn) {
  switch (fn) {
    case ReduceFn::kSum:
      return damped_lanes::kSum;
    case ReduceFn::kMean:
      return damped_lanes::kMean;
    case ReduceFn::kVar:
      return damped_lanes::kVar;
    case ReduceFn::kStd:
      return damped_lanes::kStd;
    case ReduceFn::kMag:
      return damped_lanes::kMag;
    case ReduceFn::kRadius:
      return damped_lanes::kRadius;
    case ReduceFn::kCov:
      return damped_lanes::kCov;
    default:  // kPcc.
      return damped_lanes::kPcc;
  }
}

// Splits a granularity's owners into Reducers and damped lanes. Each λ is a
// window (first-use order). The lanes are ordered by kind (one-sided first),
// source field and window, so the lanes of one kind and field form a few
// runs of consecutive windows. A run computes the
// statistics its lanes' slots read (its tier). The unsynthesized slots of
// damped owners move from emit_ops to lane_ops.
void PlanDampedLanes(ExecPlan::GranularityPlan& gp, bool directional) {
  struct Lane {
    uint32_t owner = 0;
    uint32_t window = 0;
    int src = 0;
    bool two_sided = false;
    damped_lanes::Tier tier = damped_lanes::kTierMean;
  };
  damped_lanes::Plan& lp = gp.lanes;
  std::vector<Lane> lanes;
  std::vector<int> lane_of(gp.owners.size(), -1);
  for (uint32_t i = 0; i < gp.owners.size(); ++i) {
    ExecPlan::ReduceStep& owner = gp.owners[i];
    const StateFamily family = Reducer::Family(owner.spec, directional);
    if (family != StateFamily::kDamped1D && family != StateFamily::kDamped2D) {
      owner.state = static_cast<uint32_t>(gp.undamped.size());
      gp.undamped.push_back(i);
      continue;
    }
    owner.damped = true;
    Lane lane{.owner = i, .src = owner.src, .two_sided = family == StateFamily::kDamped2D};
    const auto window = std::find(lp.lambdas.begin(), lp.lambdas.end(), owner.spec.decay_lambda);
    lane.window = static_cast<uint32_t>(window - lp.lambdas.begin());
    if (window == lp.lambdas.end()) {
      lp.lambdas.push_back(owner.spec.decay_lambda);
    }
    lane_of[i] = static_cast<int>(lanes.size());
    lanes.push_back(lane);
  }
  for (const auto* ops : {&gp.emit_ops, &gp.synthesized_ops}) {
    for (const EmitOp& op : *ops) {
      if (lane_of[op.owner] >= 0) {
        Lane& lane = lanes[lane_of[op.owner]];
        lane.tier = std::max(lane.tier, damped_lanes::TierOf(LaneStat(op.fn)));
      }
    }
  }
  std::stable_sort(lanes.begin(), lanes.end(), [](const Lane& a, const Lane& b) {
    return std::tie(a.two_sided, a.src, a.window) < std::tie(b.two_sided, b.src, b.window);
  });
  uint32_t next[2] = {0, 0};  // One-sided, two-sided.
  for (size_t i = 0; i < lanes.size();) {
    size_t j = i + 1;
    while (j < lanes.size() && lanes[j].src == lanes[i].src &&
           lanes[j].two_sided == lanes[i].two_sided &&
           lanes[j].window == lanes[j - 1].window + 1) {
      ++j;
    }
    damped_lanes::Run run{.lane = next[lanes[i].two_sided],
                          .window = lanes[i].window,
                          .count = static_cast<uint32_t>(j - i),
                          .input = static_cast<uint32_t>(lanes[i].src),
                          .two_sided = lanes[i].two_sided};
    for (size_t k = i; k < j; ++k) {
      run.tier = std::max(run.tier, lanes[k].tier);
    }
    next[lanes[i].two_sided] += run.count;
    lp.runs.push_back(run);
    i = j;
  }
  lp.lanes1 = next[0];
  lp.lanes2 = next[1];
  size_t first = 0;
  for (const damped_lanes::Run& run : lp.runs) {
    for (uint32_t k = 0; k < run.count; ++k) {
      gp.owners[lanes[first + k].owner].state = lp.StatsLane(run, k);
    }
    first += run.count;
  }
  std::vector<EmitOp> undamped_ops;
  for (const EmitOp& op : gp.emit_ops) {
    const ExecPlan::ReduceStep& owner = gp.owners[op.owner];
    if (owner.damped) {
      gp.lane_ops.push_back(LaneOp{LaneStat(op.fn) * lp.lanes() + owner.state, op.offset});
    } else {
      undamped_ops.push_back(op);
    }
  }
  gp.emit_ops = std::move(undamped_ops);
}

}  // namespace

Result<ExecPlan> ExecPlan::FromProgram(const NicProgram& program) {
  ExecPlan plan;
  std::map<std::string, int> field_index = {{"size", kFieldSize},
                                            {"tstamp", kFieldTstamp},
                                            {"direction", kFieldDirection},
                                            {"fgkey", kFieldFgKey}};

  for (const auto& m : program.maps) {
    MapStep step;
    step.fn = m.fn;
    if (m.src.empty()) {
      step.src = -1;
    } else {
      const auto it = field_index.find(m.src);
      if (it == field_index.end()) {
        return Status::Internal("exec plan: unresolved map source '" + m.src + "'");
      }
      step.src = it->second;
    }
    auto [it, inserted] = field_index.emplace(m.dst, plan.field_count);
    if (inserted) {
      ++plan.field_count;
    }
    step.dst = it->second;
    plan.maps.push_back(step);
  }

  if (program.granularities.empty()) {
    return Status::Internal("exec plan: program has no granularities");
  }
  for (Granularity g : program.granularities) {
    GranularityPlan gp;
    gp.granularity = g;
    // flow carries no direction information (Table 5); the other
    // granularities record it, making damped 1D statistics directional.
    const bool directional = g != Granularity::kFlow;
    // Owner key: (source field, state family, λ, family parameters).
    struct OwnerKey {
      int src = 0;
      StateFamily family = StateFamily::kSum;
      double lambda = 0.0;
      double param0 = 0.0;
      double param1 = 0.0;
      uint32_t limit = 0;
      auto operator<=>(const OwnerKey&) const = default;
    };
    std::map<OwnerKey, uint32_t> owner_index;
    for (const auto& slot : program.layout) {
      if (slot.granularity != g) {
        continue;
      }
      const auto it = field_index.find(slot.field);
      if (it == field_index.end()) {
        return Status::Internal("exec plan: unresolved reduce source '" + slot.field + "'");
      }
      OwnerKey key{.src = it->second,
                   .family = Reducer::Family(slot.spec, directional),
                   .lambda = slot.spec.decay_lambda};
      if (key.family == StateFamily::kHist) {
        key.param0 = slot.spec.param0;
        key.param1 = slot.spec.param1;
      } else if (key.family == StateFamily::kArray) {
        key.limit = OutputWidth(slot.spec);
      }
      const auto [owner, inserted] =
          owner_index.emplace(key, static_cast<uint32_t>(gp.owners.size()));
      if (inserted) {
        gp.owners.push_back(ReduceStep{it->second, slot.spec});
      }
      gp.slots.push_back(slot);
      const EmitOp op{.owner = owner->second,
                      .slot = static_cast<uint32_t>(gp.slots.size() - 1),
                      .fn = slot.spec.fn,
                      .q = slot.spec.param0,
                      .offset = gp.width,
                      .width = slot.Width()};
      (slot.synths.empty() ? gp.emit_ops : gp.synthesized_ops).push_back(op);
      gp.width += slot.Width();
    }
    PlanDampedLanes(gp, directional);
    std::stable_sort(gp.emit_ops.begin(), gp.emit_ops.end(),
                     [](const EmitOp& a, const EmitOp& b) { return a.owner < b.owner; });
    plan.width += gp.width;
    plan.per_granularity.push_back(std::move(gp));
  }
  if (std::all_of(plan.per_granularity.begin(), plan.per_granularity.end(),
                  [](const GranularityPlan& gp) { return gp.slots.empty(); })) {
    return Status::Internal("exec plan: no collected features");
  }
  if (plan.field_count > 64) {
    return Status::ResourceExhausted("exec plan: more than 64 per-packet fields");
  }
  for (const auto& m : plan.maps) {
    if (m.src == kFieldFgKey) {
      plan.uses_fg_key = true;
    }
  }
  for (const auto& gp : plan.per_granularity) {
    for (const auto& r : gp.owners) {
      if (r.src == kFieldFgKey) {
        plan.uses_fg_key = true;
      }
    }
  }
  return plan;
}

void PacketBatchSoA::Assemble(const MgpvReport* reports, size_t count) {
  size_t total = 0;
  for (size_t r = 0; r < count; ++r) {
    total += reports[r].cells.size();
  }
  cells.resize(total);
  key_hi.resize(total);
  key_lo.resize(total);
  pkt_size.resize(total);
  tstamp_ns.resize(total);
  dir_sign.resize(total);
  t_seconds.resize(total);
  direction.resize(total);
  report_.resize(total);
  // Columns start in arrival order; SortByPrefix() permutes them per
  // granularity so each call sees that granularity's groups as contiguous
  // runs with arrival order preserved *within* every run.
  size_t row = 0;
  for (size_t r = 0; r < count; ++r) {
    for (const MgpvCell& cell : reports[r].cells) {
      SetRow(row++, cell, static_cast<uint32_t>(r));
    }
  }
  sorted_prefix_ = 0;
  arrival_order_ = true;
  fg_hash_valid_ = false;
}

void PacketBatchSoA::SetRow(size_t row, const MgpvCell& cell, uint32_t report) {
  cells[row] = &cell;
  key_hi[row] = cell.fg_key.hi;
  key_lo[row] = cell.fg_key.lo;
  pkt_size[row] = static_cast<double>(cell.size);
  const double t_ns = static_cast<double>(cell.full_timestamp_ns);
  tstamp_ns[row] = t_ns;
  t_seconds[row] = t_ns * 1e-9;
  dir_sign[row] = cell.direction == Direction::kForward ? 1.0 : -1.0;
  direction[row] = cell.direction;
  report_[row] = report;
}

namespace {

// True when key a sorts before key b on their first `kPrefixBytes` bytes
// (host = hi >> 32, channel = hi, socket/flow = both words).
template <int kPrefixBytes>
bool PrefixLess(uint64_t hi_a, uint64_t lo_a, uint64_t hi_b, uint64_t lo_b) {
  if constexpr (kPrefixBytes == 4) {
    return (hi_a >> 32) < (hi_b >> 32);
  } else if constexpr (kPrefixBytes == 8) {
    return hi_a < hi_b;
  } else {
    return hi_a != hi_b ? hi_a < hi_b : lo_a < lo_b;
  }
}

}  // namespace

template <int kPrefixBytes>
void PacketBatchSoA::SortBy() {
  if (arrival_order_) {
    // Rows that arrived in prefix order stay put: the stable sort would be
    // the identity. Otherwise keep the arrival order for later sorts.
    size_t i = 1;
    while (i < rows() &&
           !PrefixLess<kPrefixBytes>(key_hi[i], key_lo[i], key_hi[i - 1], key_lo[i - 1])) {
      ++i;
    }
    if (i >= rows()) {
      return;
    }
    cells_unsorted_ = cells;
    hi_unsorted_ = key_hi;
    lo_unsorted_ = key_lo;
    report_unsorted_ = report_;
  }
  // Always sort from arrival order: refining an existing finer-prefix order
  // would interleave a coarse group's sub-groups out of arrival order.
  order_.resize(cells_unsorted_.size());
  for (size_t r = 0; r < order_.size(); ++r) {
    order_[r] = static_cast<uint32_t>(r);
  }
  const auto less = [this](uint32_t a, uint32_t b) {
    return PrefixLess<kPrefixBytes>(hi_unsorted_[a], lo_unsorted_[a], hi_unsorted_[b],
                                    lo_unsorted_[b]);
  };
  arrival_order_ = std::is_sorted(order_.begin(), order_.end(), less);
  if (!arrival_order_) {
    std::stable_sort(order_.begin(), order_.end(), less);
  }
  Gather();
}

void PacketBatchSoA::SortByPrefix(int prefix_bytes) {
  if (sorted_prefix_ == prefix_bytes) {
    return;
  }
  sorted_prefix_ = prefix_bytes;
  switch (prefix_bytes) {
    case 4:
      SortBy<4>();
      break;
    case 8:
      SortBy<8>();
      break;
    default:
      SortBy<13>();
      break;
  }
}

void PacketBatchSoA::Gather() {
  for (size_t r = 0; r < order_.size(); ++r) {
    const uint32_t src = order_[r];
    SetRow(r, *cells_unsorted_[src], report_unsorted_[src]);
  }
  fg_hash_valid_ = false;
}

void PacketBatchSoA::EnsureFgHash() {
  if (fg_hash_valid_) {
    return;
  }
  fg_hash.resize(rows());
  for (size_t i = 0; i < rows(); ++i) {
    if (i > 0 && key_hi[i] == key_hi[i - 1] && key_lo[i] == key_lo[i - 1]) {
      fg_hash[i] = fg_hash[i - 1];
      continue;
    }
    fg_hash[i] = static_cast<double>(InitiatorKey{key_hi[i], key_lo[i]}.Crc(0));
  }
  fg_hash_valid_ = true;
}

bool PacketBatchSoA::SamePrefix(size_t a, size_t b, int prefix_bytes) const {
  switch (prefix_bytes) {
    case 4:
      return (key_hi[a] >> 32) == (key_hi[b] >> 32);
    case 8:
      return key_hi[a] == key_hi[b];
    default:
      return key_hi[a] == key_hi[b] && key_lo[a] == key_lo[b];
  }
}

GroupState GroupState::Make(const ExecPlan& plan, size_t gi, const ExecOptions& options) {
  GroupState state;
  const auto& gp = plan.per_granularity[gi];
  const bool directional = gp.granularity != Granularity::kFlow;
  state.reducers.reserve(gp.undamped.size());
  for (uint32_t owner : gp.undamped) {
    state.reducers.emplace_back(gp.owners[owner].spec, options, directional);
  }
  state.damped_mode = options.EffectiveDampedMode();
  if (const size_t size = gp.lanes.BlockSize(); size > 0) {
    state.lanes = std::make_unique_for_overwrite<double[]>(size);
    damped_lanes::InitBlock(gp.lanes, state.lanes.get());
  }
  return state;
}

void UpdateGroupBatch(const ExecPlan& plan, size_t gi, GroupState& group,
                      PacketBatchSoA& soa, size_t begin, size_t end) {
  const auto& gp = plan.per_granularity[gi];
  const size_t n = end - begin;

  // Column table: builtin fields come straight from the SoA; map outputs
  // overlay their dst slot as they are wired up, so each map's source
  // pointer (snapshotted in program order below) resolves to the latest
  // write in program order — including a map dst that shadows a builtin.
  const double* col[64];
  col[ExecPlan::kFieldSize] = soa.pkt_size.data();
  col[ExecPlan::kFieldTstamp] = soa.tstamp_ns.data();
  col[ExecPlan::kFieldDirection] = soa.dir_sign.data();
  col[ExecPlan::kFieldFgKey] = nullptr;
  if (plan.uses_fg_key) {
    soa.EnsureFgHash();
    col[ExecPlan::kFieldFgKey] = soa.fg_hash.data();
  }

  if (soa.field_scratch.size() < static_cast<size_t>(plan.field_count)) {
    soa.field_scratch.resize(plan.field_count);
  }
  struct MapCtx {
    const double* src;
    const double* size_src;  // What kSpeed's implicit size read resolves to.
    double* dst;
    MapFn fn;
  };
  MapCtx map_ctx[64];
  const size_t map_count = plan.maps.size();
  for (size_t mi = 0; mi < map_count; ++mi) {
    const auto& m = plan.maps[mi];
    auto& scratch = soa.field_scratch[m.dst];
    if (scratch.size() < soa.rows()) {
      scratch.resize(soa.rows());
    }
    map_ctx[mi] = MapCtx{m.src >= 0 ? col[m.src] : nullptr,
                         col[ExecPlan::kFieldSize], scratch.data(), m.fn};
    col[m.dst] = scratch.data();
  }

  // Maps run row-major: ipt/speed/burst are recurrences over the group's
  // packet sequence.
  for (size_t r = begin; r < end; ++r) {
    const double t_ns = soa.tstamp_ns[r];
    const int dir_sign = soa.dir_sign[r] > 0.0 ? 1 : -1;
    double& last_ts =
        group.last_tstamp_ns[static_cast<int>(soa.direction[r])];
    for (size_t mi = 0; mi < map_count; ++mi) {
      const MapCtx& c = map_ctx[mi];
      double dst = 0.0;
      switch (c.fn) {
        case MapFn::kOne:
          dst = 1.0;
          break;
        case MapFn::kIpt:
          dst = last_ts < 0.0 ? 0.0 : t_ns - last_ts;
          break;
        case MapFn::kSpeed: {
          const double ipt_ns = last_ts < 0.0 ? 0.0 : t_ns - last_ts;
          dst = ipt_ns > 0.0 ? c.size_src[r] / (ipt_ns * 1e-9) : 0.0;
          break;
        }
        case MapFn::kBurst:
          group.burst_len =
              (group.last_dir == dir_sign) ? group.burst_len + 1.0 : 1.0;
          dst = group.burst_len;
          break;
        case MapFn::kDirection:
          dst = (c.src != nullptr ? c.src[r] : 0.0) * dir_sign;
          break;
      }
      c.dst[r] = dst;
    }
    last_ts = t_ns;
    group.last_dir = dir_sign;
  }

  // Each undamped owner consumes its source column as one bulk call; the
  // damped lanes, whose decays follow consecutive timestamps, go row by
  // row.
  for (size_t i = 0; i < gp.undamped.size(); ++i) {
    group.reducers[i].UpdateBatch(col[gp.owners[gp.undamped[i]].src] + begin, n);
  }
  if (group.lanes != nullptr) {
    double row[64];
    for (size_t r = begin; r < end; ++r) {
      for (const damped_lanes::Run& run : gp.lanes.runs) {
        row[run.input] = col[run.input][r];
      }
      damped_lanes::Update(group.damped_mode, gp.lanes, group.lanes.get(), soa.t_seconds[r],
                           soa.direction[r] == Direction::kForward, row);
    }
  }

  group.packets += n;
  const MgpvCell& last = *soa.cells[end - 1];
  group.last_seen_ns = last.full_timestamp_ns;
  group.last_fg_key = last.fg_key;
  group.last_direction = last.direction;
}

void EmitGroupFeatures(const ExecPlan& plan, size_t gi, const GroupState& group,
                       std::vector<double>& out) {
  const auto& gp = plan.per_granularity[gi];
  const size_t begin = out.size();
  out.resize(begin + gp.width, 0.0);  // Short blocks stay zero-padded.
  double* block = out.data() + begin;
  const std::vector<EmitOp>& ops = gp.emit_ops;
  for (size_t i = 0; i < ops.size();) {
    size_t j = i + 1;
    while (j < ops.size() && ops[j].owner == ops[i].owner) {
      ++j;
    }
    group.reducers[gp.owners[ops[i].owner].state].EmitOps(&ops[i], j - i, block);
    i = j;
  }
  damped_lanes::Scratch<damped_lanes::kStatCount * 64> stats(damped_lanes::kStatCount *
                                                             gp.lanes.lanes());
  if (group.lanes != nullptr) {
    damped_lanes::Stats(group.damped_mode, gp.lanes, group.lanes.get(),
                        group.last_direction == Direction::kForward, stats.data());
    for (const LaneOp& op : gp.lane_ops) {
      block[op.offset] = stats.data()[op.stat];
    }
  }
  // Synthesized slots: the raw values through the slot's synthesize chain,
  // cut to the slot's width.
  for (const EmitOp& op : gp.synthesized_ops) {
    const FeatureSlot& slot = gp.slots[op.slot];
    const ExecPlan::ReduceStep& owner = gp.owners[op.owner];
    std::vector<double> values;
    if (owner.damped) {
      values.push_back(stats.data()[LaneStat(op.fn) * gp.lanes.lanes() + owner.state]);
    } else {
      group.reducers[owner.state].EmitAs(slot.spec, values);
    }
    for (const auto& step : slot.synths) {
      values = ApplySynth(step, std::move(values));
    }
    std::copy_n(values.begin(), std::min<size_t>(values.size(), op.width), block + op.offset);
  }
}

FeatureVector AssembleVector(const ExecPlan& plan, const GroupTables& tables,
                             const std::array<const GroupState*, 4>& groups,
                             const InitiatorKey& fg_key, const GroupKey& key,
                             uint64_t timestamp_ns) {
  FeatureVector vector;
  vector.group = key;
  vector.timestamp_ns = timestamp_ns;
  vector.values.reserve(plan.width);
  for (size_t gi = 0; gi < plan.per_granularity.size(); ++gi) {
    const auto& gp = plan.per_granularity[gi];
    const GroupState* group = groups[gi];
    if (group == nullptr) {
      group = tables[gi]->Find(GroupKey::Of(fg_key, gp.granularity),
                               fg_key.Hash(gp.granularity));
    }
    if (group != nullptr) {
      EmitGroupFeatures(plan, gi, *group, vector.values);
    } else {
      vector.values.resize(vector.values.size() + gp.width, 0.0);
    }
  }
  return vector;
}

}  // namespace superfe

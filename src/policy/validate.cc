#include "policy/validate.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

namespace superfe {

Status ValidatePolicy(Policy& policy) {
  if (policy.ops.empty()) {
    return Status::InvalidArgument("policy has no operators");
  }

  bool seen_groupby = false;
  bool seen_compute = false;  // Any map/reduce/synthesize.
  bool seen_collect = false;
  // Collect may appear several times (Fig 3 collects after each reduce
  // block); every occurrence must use the same unit.
  std::optional<CollectOp> first_collect;
  std::set<std::string> fields = {"size", "tstamp", "direction", "fgkey"};
  std::set<std::string> features;  // Fields produced by reduce.
  GroupByOp* groupby = nullptr;

  for (auto& op : policy.ops) {
    if (auto* f = std::get_if<FilterOp>(&op)) {
      if (seen_groupby) {
        // Switch-side constraint (§4.1): filtering happens before grouping
        // in the match-action pipeline.
        return Status::InvalidArgument("filter must precede groupby");
      }
      (void)f;
    } else if (auto* g = std::get_if<GroupByOp>(&op)) {
      if (seen_groupby) {
        return Status::InvalidArgument("at most one groupby (use a granularity chain)");
      }
      if (g->chain.empty()) {
        return Status::InvalidArgument("groupby needs at least one granularity");
      }
      // Normalize the chain coarse -> fine and check it is a chain.
      std::sort(g->chain.begin(), g->chain.end(), [](Granularity a, Granularity b) {
        return static_cast<int>(a) < static_cast<int>(b);
      });
      g->chain.erase(std::unique(g->chain.begin(), g->chain.end()), g->chain.end());
      for (size_t i = 1; i < g->chain.size(); ++i) {
        if (!IsCoarserOrEqual(g->chain[i - 1], g->chain[i]) ||
            (g->chain[i - 1] == Granularity::kSocket && g->chain[i] == Granularity::kFlow)) {
          return Status::InvalidArgument("granularities do not form a dependency chain");
        }
      }
      seen_groupby = true;
      groupby = g;
    } else if (auto* m = std::get_if<MapOp>(&op)) {
      if (!seen_groupby) {
        return Status::InvalidArgument("map requires a preceding groupby");
      }
      if (m->dst.empty()) {
        return Status::InvalidArgument("map destination field is empty");
      }
      if (!m->src.empty() && fields.count(m->src) == 0) {
        return Status::InvalidArgument("map source field '" + m->src + "' is not defined");
      }
      fields.insert(m->dst);
      seen_compute = true;
    } else if (auto* r = std::get_if<ReduceOp>(&op)) {
      if (!seen_groupby) {
        return Status::InvalidArgument("reduce requires a preceding groupby");
      }
      if (fields.count(r->src) == 0) {
        return Status::InvalidArgument("reduce source field '" + r->src + "' is not defined");
      }
      if (r->specs.empty()) {
        return Status::InvalidArgument("reduce needs at least one reducing function");
      }
      if (r->at.has_value() && groupby != nullptr) {
        bool in_chain = false;
        for (Granularity g : groupby->chain) {
          if (g == *r->at) {
            in_chain = true;
            break;
          }
        }
        if (!in_chain) {
          return Status::InvalidArgument("reduce granularity restriction is not in the chain");
        }
      }
      // Every parameter that becomes a width is checked before anything
      // converts it to an integer.
      for (const auto& spec : r->specs) {
        const bool histogram = IsHistogramBased(spec.fn) && spec.fn != ReduceFn::kPercent;
        // Only histograms read a bin count, and only they and ft_percent a
        // first parameter: any other is refused rather than carried along.
        if ((!histogram && spec.param1 != 0.0) ||
            (!histogram && spec.fn != ReduceFn::kPercent && spec.param0 != 0.0)) {
          return Status::InvalidArgument(std::string(ReduceFnName(spec.fn)) +
                                         " takes no such parameter");
        }
        if (histogram && (!(spec.param0 > 0.0) || !IsSlotWidth(spec.param1))) {
          return Status::InvalidArgument(
              std::string(ReduceFnName(spec.fn)) + " requires a positive width and an integer " +
              "bin count in [1, " + std::to_string(kMaxSlotWidth) + "]");
        }
        if (spec.fn == ReduceFn::kArray && spec.array_limit > kMaxSlotWidth) {
          return Status::InvalidArgument("f_array limit must be at most " +
                                         std::to_string(kMaxSlotWidth));
        }
        if (spec.fn == ReduceFn::kPercent && !(spec.param0 >= 0.0 && spec.param0 <= 1.0)) {
          return Status::InvalidArgument("ft_percent quantile must be in [0, 1]");
        }
        if (!std::isfinite(spec.decay_lambda) || spec.decay_lambda < 0.0) {
          return Status::InvalidArgument("decay lambda must be finite and non-negative");
        }
        features.insert(r->src + "." + ReduceFnName(spec.fn));
      }
      seen_compute = true;
    } else if (auto* s = std::get_if<SynthOp>(&op)) {
      if (features.empty()) {
        return Status::InvalidArgument("synthesize requires a preceding reduce");
      }
      // The src names either "<field>.<fn>" or the reduce source field.
      bool found = features.count(s->src) > 0;
      if (!found) {
        for (const auto& f : features) {
          if (f.rfind(s->src + ".", 0) == 0) {
            found = true;
            break;
          }
        }
      }
      if (!found) {
        return Status::InvalidArgument("synthesize source '" + s->src +
                                       "' does not match any reduced feature");
      }
      if (s->fn == SynthFn::kSample && !IsSlotWidth(s->param0)) {
        return Status::InvalidArgument("ft_sample needs an integer target length in [1, " +
                                       std::to_string(kMaxSlotWidth) + "]");
      }
      seen_compute = true;
    } else if (auto* c = std::get_if<CollectOp>(&op)) {
      if (!seen_compute) {
        return Status::InvalidArgument("collect requires preceding feature computation");
      }
      if (!c->per_packet && groupby != nullptr) {
        bool in_chain = false;
        for (Granularity g : groupby->chain) {
          if (g == c->unit) {
            in_chain = true;
            break;
          }
        }
        if (!in_chain) {
          return Status::InvalidArgument("collect unit is not in the groupby chain");
        }
      }
      if (first_collect.has_value()) {
        if (first_collect->per_packet != c->per_packet ||
            (!c->per_packet && first_collect->unit != c->unit)) {
          return Status::InvalidArgument("all collect operators must use the same unit");
        }
      } else {
        first_collect = *c;
      }
      seen_collect = true;
    }
  }

  if (!seen_groupby) {
    return Status::InvalidArgument("policy needs a groupby");
  }
  if (!seen_collect) {
    return Status::InvalidArgument("policy needs a collect");
  }
  return Status::Ok();
}

}  // namespace superfe

#include "policy/compile.h"

#include <algorithm>
#include <map>
#include <set>

#include "policy/validate.h"

namespace superfe {

uint32_t MetaFieldBytes(MetaField field) {
  switch (field) {
    case MetaField::kSize:
      return 2;
    case MetaField::kTimestamp:
      return 4;
    case MetaField::kDirection:
      return 1;
  }
  return 0;
}

const char* MetaFieldName(MetaField field) {
  switch (field) {
    case MetaField::kSize:
      return "size";
    case MetaField::kTimestamp:
      return "tstamp";
    case MetaField::kDirection:
      return "direction";
  }
  return "?";
}

uint32_t SwitchProgram::MetadataBytesPerPacket() const {
  uint32_t bytes = 0;
  for (MetaField f : fields) {
    bytes += MetaFieldBytes(f);
  }
  if (multi_granularity()) {
    bytes += 2;  // FG-key index into the synchronized hash table (§5.1).
  }
  return bytes;
}

namespace {

uint32_t KeyBytes(Granularity g) {
  switch (g) {
    case Granularity::kHost:
      return 4;  // Source IP.
    case Granularity::kChannel:
      return 8;  // IP pair.
    case Granularity::kSocket:
    case Granularity::kFlow:
      return 13;  // Five-tuple.
  }
  return 13;
}

}  // namespace

uint32_t SwitchProgram::CgKeyBytes() const { return KeyBytes(cg()); }
uint32_t SwitchProgram::FgKeyBytes() const { return KeyBytes(fg()); }

std::string FeatureSlot::Name() const {
  std::string name = std::string(GranularityName(granularity)) + "/" + field + "." +
                     ReduceFnName(spec.fn);
  for (const auto& step : synths) {
    name += std::string(".") + SynthFnName(step.fn);
  }
  return name;
}

uint32_t FeatureSlot::Width() const {
  uint32_t width = OutputWidth(spec);
  for (const auto& step : synths) {
    if (step.fn == SynthFn::kSample && step.param >= 1.0) {
      width = static_cast<uint32_t>(step.param);
    }
  }
  return width;
}

uint32_t NicProgram::StateBytesPerGroup() const {
  uint32_t bytes = 0;
  for (const auto& s : states) {
    bytes += s.bytes;
  }
  return bytes;
}

uint32_t NicProgram::FeatureDimension() const {
  uint32_t dim = 0;
  for (const auto& slot : layout) {
    dim += slot.Width();
  }
  return dim;
}

uint32_t NicProgram::AluOpsPerPacket() const {
  uint32_t ops = 0;
  const uint32_t instances = static_cast<uint32_t>(granularities.size());
  for (const auto& m : maps) {
    ops += CostOfMap(m.fn).alu_ops * instances;
  }
  for (const auto& r : reduces) {
    const uint32_t at = r.at.has_value() ? 1 : instances;
    for (const auto& spec : r.specs) {
      ops += CostOfReduce(spec).alu_ops * at;
    }
  }
  return ops;
}

uint32_t NicProgram::DivisionsPerPacket() const {
  // Divider invocations per packet. Statistics that mathematically divide
  // (mean, variance, moments, 2D correlations) share one reciprocal per
  // (granularity, source field) group update - the Micro-C implementation
  // computes 1/w or 1/n once and strength-reduces every feature of that
  // field to multiplies. Mapping functions (f_speed) divide per packet.
  uint32_t divs = 0;
  const uint32_t instances = static_cast<uint32_t>(granularities.size());
  for (const auto& m : maps) {
    divs += CostOfMap(m.fn).divisions * instances;
  }
  for (size_t gi = 0; gi < granularities.size(); ++gi) {
    std::set<std::string> div_fields;
    for (const auto& r : reduces) {
      if (r.at.has_value() && *r.at != granularities[gi]) {
        continue;
      }
      for (const auto& spec : r.specs) {
        if (CostOfReduce(spec).divisions > 0) {
          div_fields.insert(r.src);
          break;
        }
      }
    }
    divs += static_cast<uint32_t>(div_fields.size());
  }
  return divs;
}

uint32_t NicProgram::MemWordsPerPacket() const {
  uint32_t words = 0;
  const uint32_t instances = static_cast<uint32_t>(granularities.size());
  for (const auto& m : maps) {
    words += CostOfMap(m.fn).mem_words * instances;
  }
  for (const auto& r : reduces) {
    const uint32_t at = r.at.has_value() ? 1 : instances;
    for (const auto& spec : r.specs) {
      words += CostOfReduce(spec).mem_words * at;
    }
  }
  return words;
}

Result<CompiledPolicy> Compile(const Policy& input) {
  CompiledPolicy out;
  out.policy = input;
  Status status = ValidatePolicy(out.policy);
  if (!status.ok()) {
    return status;
  }
  const Policy& policy = out.policy;

  SwitchProgram& sw = out.switch_program;
  NicProgram& nic = out.nic_program;

  // ---- Extract the pipeline pieces ----
  // Which packet fields feed any map/reduce (directly or transitively).
  std::set<std::string> used_builtin_fields;
  std::map<std::string, MapFn> map_fn_of_field;

  auto note_source = [&](const std::string& field) {
    if (field == "size" || field == "tstamp" || field == "direction" || field == "fgkey") {
      used_builtin_fields.insert(field);
    }
    const auto it = map_fn_of_field.find(field);
    if (it != map_fn_of_field.end()) {
      // Transitive needs of mapping functions.
      switch (it->second) {
        case MapFn::kIpt:
        case MapFn::kSpeed:
          used_builtin_fields.insert("tstamp");
          if (it->second == MapFn::kSpeed) {
            used_builtin_fields.insert("size");
          }
          break;
        case MapFn::kBurst:
        case MapFn::kDirection:
          used_builtin_fields.insert("direction");
          break;
        case MapFn::kOne:
          break;
      }
    }
  };

  // Pending features: produced by reduce, waiting for a collect.
  struct Pending {
    std::string field;
    ReduceSpec spec;
    std::vector<SynthStep> synths;
    std::optional<Granularity> at;
  };
  std::vector<Pending> pending;
  std::vector<Pending> collected;

  for (const auto& op : policy.ops) {
    if (const auto* f = std::get_if<FilterOp>(&op)) {
      for (const auto& pred : f->expr.conjuncts) {
        sw.filter.conjuncts.push_back(pred);
      }
    } else if (const auto* g = std::get_if<GroupByOp>(&op)) {
      sw.chain = g->chain;
      nic.granularities = g->chain;
    } else if (const auto* m = std::get_if<MapOp>(&op)) {
      nic.maps.push_back(*m);
      map_fn_of_field[m->dst] = m->fn;
      if (!m->src.empty()) {
        note_source(m->src);
      }
      note_source(m->dst);
    } else if (const auto* r = std::get_if<ReduceOp>(&op)) {
      nic.reduces.push_back(*r);
      note_source(r->src);
      for (const auto& spec : r->specs) {
        if (IsBidirectional(spec.fn)) {
          used_builtin_fields.insert("direction");
        }
        pending.push_back(Pending{r->src, spec, {}, r->at});
      }
    } else if (const auto* s = std::get_if<SynthOp>(&op)) {
      nic.synths.push_back(*s);
      // Attach to the matching pending feature(s): exact "field.fn" match or
      // all pending features of a field.
      bool matched = false;
      for (auto& p : pending) {
        const std::string full = p.field + "." + ReduceFnName(p.spec.fn);
        if (full == s->src || p.field == s->src) {
          p.synths.push_back(SynthStep{s->fn, s->param0});
          matched = true;
        }
      }
      if (!matched) {
        return Status::InvalidArgument("synthesize source '" + s->src +
                                       "' has no pending feature");
      }
    } else if (const auto* c = std::get_if<CollectOp>(&op)) {
      nic.collect = *c;
      for (auto& p : pending) {
        collected.push_back(std::move(p));
      }
      pending.clear();
    }
  }

  if (sw.chain.empty()) {
    return Status::Internal("validated policy lost its groupby");
  }
  if (collected.empty()) {
    return Status::InvalidArgument("collect captured no features");
  }

  // ---- Switch metadata layout ----
  // Deterministic order: size, tstamp, direction.
  if (used_builtin_fields.count("size") != 0) {
    sw.fields.push_back(MetaField::kSize);
  }
  if (used_builtin_fields.count("tstamp") != 0) {
    sw.fields.push_back(MetaField::kTimestamp);
  }
  if (used_builtin_fields.count("direction") != 0) {
    sw.fields.push_back(MetaField::kDirection);
  }
  if (sw.fields.empty()) {
    // Even pure counting policies batch the packet size (cheapest witness
    // of the packet's existence).
    sw.fields.push_back(MetaField::kSize);
  }

  // ---- Feature layout: per granularity x collected feature (respecting
  // per-reduce granularity restrictions) ----
  for (Granularity g : nic.granularities) {
    for (const auto& p : collected) {
      if (p.at.has_value() && *p.at != g) {
        continue;
      }
      FeatureSlot slot;
      slot.granularity = g;
      slot.field = p.field;
      slot.spec = p.spec;
      slot.synths = p.synths;
      nic.layout.push_back(std::move(slot));
    }
  }

  // ---- State items, expanded per granularity instance ----
  for (Granularity g : nic.granularities) {
    const std::string prefix = std::string(GranularityName(g)) + "/";
    std::set<std::string> map_states_done;
    for (const auto& m : nic.maps) {
      const MapCost cost = CostOfMap(m.fn);
      if (cost.state_bytes == 0) {
        continue;
      }
      const std::string name = prefix + "map:" + MapFnName(m.fn);
      if (!map_states_done.insert(name).second) {
        continue;  // ipt/speed share the last-timestamp state.
      }
      nic.states.push_back(StateItem{name, cost.state_bytes, cost.mem_words});
    }
    for (const auto& r : nic.reduces) {
      if (r.at.has_value() && *r.at != g) {
        continue;
      }
      for (const auto& spec : r.specs) {
        const ReduceCost cost = CostOfReduce(spec);
        nic.states.push_back(StateItem{prefix + r.src + "." + ReduceFnName(spec.fn),
                                       cost.state_bytes, cost.mem_words});
      }
    }
  }

  return out;
}

}  // namespace superfe

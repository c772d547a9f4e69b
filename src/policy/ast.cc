#include "policy/ast.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "policy/value.h"

namespace superfe {

std::string Value::ToString() const {
  if (is_scalar()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", AsScalar());
    return buf;
  }
  std::ostringstream out;
  out << "[";
  const auto& arr = AsArray();
  for (size_t i = 0; i < arr.size(); ++i) {
    if (i != 0) {
      out << ", ";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", arr[i]);
    out << buf;
    if (i >= 7 && arr.size() > 9) {
      out << ", ... (" << arr.size() << " total)";
      break;
    }
  }
  out << "]";
  return out.str();
}

const char* GranularityName(Granularity g) {
  switch (g) {
    case Granularity::kHost:
      return "host";
    case Granularity::kChannel:
      return "channel";
    case Granularity::kSocket:
      return "socket";
    case Granularity::kFlow:
      return "flow";
  }
  return "?";
}

bool IsCoarserOrEqual(Granularity coarse, Granularity fine) {
  // host < channel < {socket, flow}; socket and flow are equally fine.
  auto rank = [](Granularity g) {
    switch (g) {
      case Granularity::kHost:
        return 0;
      case Granularity::kChannel:
        return 1;
      case Granularity::kSocket:
      case Granularity::kFlow:
        return 2;
    }
    return 2;
  };
  return rank(coarse) <= rank(fine);
}

namespace {

const char* PredFieldName(PredField f) {
  switch (f) {
    case PredField::kProtocol:
      return "proto";
    case PredField::kSrcPort:
      return "src_port";
    case PredField::kDstPort:
      return "dst_port";
    case PredField::kSrcIp:
      return "src_ip";
    case PredField::kDstIp:
      return "dst_ip";
    case PredField::kSize:
      return "size";
    case PredField::kTcpFlags:
      return "tcp_flags";
  }
  return "?";
}

const char* PredOpName(PredOp op) {
  switch (op) {
    case PredOp::kEq:
      return "==";
    case PredOp::kNe:
      return "!=";
    case PredOp::kLt:
      return "<";
    case PredOp::kLe:
      return "<=";
    case PredOp::kGt:
      return ">";
    case PredOp::kGe:
      return ">=";
  }
  return "?";
}

uint64_t ExtractField(const PacketRecord& pkt, PredField field) {
  switch (field) {
    case PredField::kProtocol:
      return pkt.tuple.protocol;
    case PredField::kSrcPort:
      return pkt.tuple.src_port;
    case PredField::kDstPort:
      return pkt.tuple.dst_port;
    case PredField::kSrcIp:
      return pkt.tuple.src_ip;
    case PredField::kDstIp:
      return pkt.tuple.dst_ip;
    case PredField::kSize:
      return pkt.wire_bytes;
    case PredField::kTcpFlags:
      return pkt.tcp_flags;
  }
  return 0;
}

}  // namespace

bool Predicate::Matches(const PacketRecord& pkt) const {
  const uint64_t lhs = ExtractField(pkt, field);
  switch (op) {
    case PredOp::kEq:
      return lhs == value;
    case PredOp::kNe:
      return lhs != value;
    case PredOp::kLt:
      return lhs < value;
    case PredOp::kLe:
      return lhs <= value;
    case PredOp::kGt:
      return lhs > value;
    case PredOp::kGe:
      return lhs >= value;
  }
  return false;
}

std::string Predicate::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %s %llu", PredFieldName(field), PredOpName(op),
                (unsigned long long)value);
  return buf;
}

bool FilterExpr::Matches(const PacketRecord& pkt) const {
  for (const auto& p : conjuncts) {
    if (!p.Matches(pkt)) {
      return false;
    }
  }
  return true;
}

std::string FilterExpr::ToString() const {
  if (conjuncts.empty()) {
    return "true";
  }
  std::string out;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i != 0) {
      out += " && ";
    }
    out += conjuncts[i].ToString();
  }
  return out;
}

const char* MapFnName(MapFn fn) {
  switch (fn) {
    case MapFn::kOne:
      return "f_one";
    case MapFn::kIpt:
      return "f_ipt";
    case MapFn::kSpeed:
      return "f_speed";
    case MapFn::kBurst:
      return "f_burst";
    case MapFn::kDirection:
      return "f_direction";
  }
  return "?";
}

const char* ReduceFnName(ReduceFn fn) {
  switch (fn) {
    case ReduceFn::kSum:
      return "f_sum";
    case ReduceFn::kMean:
      return "f_mean";
    case ReduceFn::kVar:
      return "f_var";
    case ReduceFn::kStd:
      return "f_std";
    case ReduceFn::kMax:
      return "f_max";
    case ReduceFn::kMin:
      return "f_min";
    case ReduceFn::kKur:
      return "f_kur";
    case ReduceFn::kSkew:
      return "f_skew";
    case ReduceFn::kMag:
      return "f_mag";
    case ReduceFn::kRadius:
      return "f_radius";
    case ReduceFn::kCov:
      return "f_cov";
    case ReduceFn::kPcc:
      return "f_pcc";
    case ReduceFn::kCard:
      return "f_card";
    case ReduceFn::kArray:
      return "f_array";
    case ReduceFn::kPdf:
      return "f_pdf";
    case ReduceFn::kCdf:
      return "f_cdf";
    case ReduceFn::kHist:
      return "ft_hist";
    case ReduceFn::kPercent:
      return "ft_percent";
  }
  return "?";
}

bool IsBidirectional(ReduceFn fn) {
  return fn == ReduceFn::kMag || fn == ReduceFn::kRadius || fn == ReduceFn::kCov ||
         fn == ReduceFn::kPcc;
}

bool IsSlotWidth(double v) {
  return v >= 1.0 && v <= kMaxSlotWidth && std::trunc(v) == v;
}

bool IsHistogramBased(ReduceFn fn) {
  return fn == ReduceFn::kHist || fn == ReduceFn::kPdf || fn == ReduceFn::kCdf ||
         fn == ReduceFn::kPercent;
}

std::string ReduceSpec::ToString() const {
  // Emits re-parseable DSL: positional histogram/quantile parameters first,
  // then named extensions.
  std::string out = ReduceFnName(fn);
  std::vector<std::string> params;
  char buf[48];
  if (IsHistogramBased(fn) && fn != ReduceFn::kPercent) {
    std::snprintf(buf, sizeof(buf), "%g", param0);
    params.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%g", param1);
    params.push_back(buf);
  } else if (fn == ReduceFn::kPercent) {
    std::snprintf(buf, sizeof(buf), "%g", param0);
    params.push_back(buf);
  }
  if (fn == ReduceFn::kArray && array_limit != 0) {
    std::snprintf(buf, sizeof(buf), "limit=%u", array_limit);
    params.push_back(buf);
  }
  if (decay_lambda > 0.0) {
    std::snprintf(buf, sizeof(buf), "decay=%g", decay_lambda);
    params.push_back(buf);
  }
  if (!params.empty()) {
    out += "{";
    for (size_t i = 0; i < params.size(); ++i) {
      out += (i != 0 ? ", " : "") + params[i];
    }
    out += "}";
  }
  return out;
}

const char* SynthFnName(SynthFn fn) {
  switch (fn) {
    case SynthFn::kMarker:
      return "f_marker";
    case SynthFn::kNorm:
      return "f_norm";
    case SynthFn::kSample:
      return "ft_sample";
  }
  return "?";
}

int Policy::LinesOfCode() const {
  if (source_text.empty()) {
    return static_cast<int>(ops.size()) + 1;  // +1 for pktstream.
  }
  int lines = 0;
  std::istringstream in(source_text);
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
      continue;  // Blank.
    }
    if (line[first] == '#') {
      continue;  // Comment.
    }
    ++lines;
  }
  return lines;
}

std::string Policy::ToString() const {
  std::ostringstream out;
  out << "pktstream";
  for (const auto& op : ops) {
    out << "\n  ";
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, FilterOp>) {
            out << ".filter(" << node.expr.ToString() << ")";
          } else if constexpr (std::is_same_v<T, GroupByOp>) {
            out << ".groupby(";
            for (size_t i = 0; i < node.chain.size(); ++i) {
              if (i != 0) {
                out << ", ";
              }
              out << GranularityName(node.chain[i]);
            }
            out << ")";
          } else if constexpr (std::is_same_v<T, MapOp>) {
            out << ".map(" << node.dst << ", " << (node.src.empty() ? "_" : node.src) << ", "
                << MapFnName(node.fn) << ")";
          } else if constexpr (std::is_same_v<T, ReduceOp>) {
            out << ".reduce(" << node.src << ", [";
            for (size_t i = 0; i < node.specs.size(); ++i) {
              if (i != 0) {
                out << ", ";
              }
              out << node.specs[i].ToString();
            }
            out << "]";
            if (node.at.has_value()) {
              out << ", " << GranularityName(*node.at);
            }
            out << ")";
          } else if constexpr (std::is_same_v<T, SynthOp>) {
            out << ".synthesize(" << SynthFnName(node.fn) << "(" << node.src;
            if (node.fn == SynthFn::kSample) {
              out << ", " << node.param0;
            }
            out << "))";
          } else if constexpr (std::is_same_v<T, CollectOp>) {
            out << ".collect(" << (node.per_packet ? "pkt" : GranularityName(node.unit)) << ")";
          }
        },
        op);
  }
  return out.str();
}

}  // namespace superfe

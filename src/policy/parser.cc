#include "policy/parser.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <optional>
#include <vector>

#include "policy/validate.h"

namespace superfe {
namespace {

// ---- Lexer ----

enum class TokKind {
  kIdent,
  kNumber,
  kDot,
  kComma,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kLBrace,
  kRBrace,
  kOp,   // == != < <= > >= && =
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  double number = 0.0;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') {
          ++pos_;
        }
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(LexIdent());
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        tokens.push_back(LexNumber());
        continue;
      }
      Token t;
      t.line = line_;
      switch (c) {
        case '.':
          t.kind = TokKind::kDot;
          break;
        case ',':
          t.kind = TokKind::kComma;
          break;
        case '(':
          t.kind = TokKind::kLParen;
          break;
        case ')':
          t.kind = TokKind::kRParen;
          break;
        case '[':
          t.kind = TokKind::kLBracket;
          break;
        case ']':
          t.kind = TokKind::kRBracket;
          break;
        case '{':
          t.kind = TokKind::kLBrace;
          break;
        case '}':
          t.kind = TokKind::kRBrace;
          break;
        case '=':
        case '!':
        case '<':
        case '>':
        case '&': {
          t.kind = TokKind::kOp;
          t.text = c;
          if (pos_ + 1 < src_.size()) {
            const char n = src_[pos_ + 1];
            if ((c == '&' && n == '&') || n == '=') {
              t.text += n;
              ++pos_;
            }
          }
          if (t.text == "!" ) {
            return Status::InvalidArgument(Where() + "stray '!'");
          }
          break;
        }
        default:
          return Status::InvalidArgument(Where() + "unexpected character '" +
                                         std::string(1, c) + "'");
      }
      ++pos_;
      tokens.push_back(std::move(t));
    }
    Token end;
    end.kind = TokKind::kEnd;
    end.line = line_;
    tokens.push_back(end);
    return tokens;
  }

 private:
  Token LexIdent() {
    Token t;
    t.kind = TokKind::kIdent;
    t.line = line_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '_')) {
      t.text += src_[pos_++];
    }
    return t;
  }

  Token LexNumber() {
    Token t;
    t.kind = TokKind::kNumber;
    t.line = line_;
    std::string text;
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '.' ||
            src_[pos_] == 'e' || src_[pos_] == 'E' ||
            ((src_[pos_] == '+' || src_[pos_] == '-') && !text.empty() &&
             (text.back() == 'e' || text.back() == 'E')))) {
      // Stop a trailing '.' that is actually an operator chain: "100." only
      // consumes the dot if a digit follows.
      if (src_[pos_] == '.' &&
          (pos_ + 1 >= src_.size() ||
           !std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])))) {
        break;
      }
      text += src_[pos_++];
    }
    t.text = text;
    t.number = std::strtod(text.c_str(), nullptr);
    return t;
  }

  std::string Where() const { return "line " + std::to_string(line_) + ": "; }

  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
};

// ---- Parser ----

const std::map<std::string, Granularity>& GranularityTable() {
  static const std::map<std::string, Granularity> table = {
      {"host", Granularity::kHost},
      {"channel", Granularity::kChannel},
      {"socket", Granularity::kSocket},
      {"flow", Granularity::kFlow},
  };
  return table;
}

const std::map<std::string, MapFn>& MapFnTable() {
  static const std::map<std::string, MapFn> table = {
      {"f_one", MapFn::kOne},           {"f_ipt", MapFn::kIpt},
      {"f_speed", MapFn::kSpeed},       {"f_burst", MapFn::kBurst},
      {"f_direction", MapFn::kDirection},
  };
  return table;
}

const std::map<std::string, ReduceFn>& ReduceFnTable() {
  static const std::map<std::string, ReduceFn> table = {
      {"f_sum", ReduceFn::kSum},       {"f_mean", ReduceFn::kMean},
      {"f_var", ReduceFn::kVar},       {"f_std", ReduceFn::kStd},
      {"f_max", ReduceFn::kMax},       {"f_min", ReduceFn::kMin},
      {"f_kur", ReduceFn::kKur},       {"f_skew", ReduceFn::kSkew},
      {"f_mag", ReduceFn::kMag},       {"f_radius", ReduceFn::kRadius},
      {"f_cov", ReduceFn::kCov},       {"f_pcc", ReduceFn::kPcc},
      {"f_card", ReduceFn::kCard},     {"f_array", ReduceFn::kArray},
      {"f_pdf", ReduceFn::kPdf},       {"f_cdf", ReduceFn::kCdf},
      {"ft_hist", ReduceFn::kHist},    {"ft_percent", ReduceFn::kPercent},
  };
  return table;
}

const std::map<std::string, SynthFn>& SynthFnTable() {
  static const std::map<std::string, SynthFn> table = {
      {"f_marker", SynthFn::kMarker},
      {"f_norm", SynthFn::kNorm},
      {"ft_sample", SynthFn::kSample},
  };
  return table;
}

const std::map<std::string, PredField>& PredFieldTable() {
  static const std::map<std::string, PredField> table = {
      {"proto", PredField::kProtocol},   {"src_port", PredField::kSrcPort},
      {"dst_port", PredField::kDstPort}, {"src_ip", PredField::kSrcIp},
      {"dst_ip", PredField::kDstIp},     {"size", PredField::kSize},
      {"tcp_flags", PredField::kTcpFlags},
  };
  return table;
}

class Parser {
 public:
  Parser(std::string name, const std::string& source, std::vector<Token> tokens)
      : name_(std::move(name)), source_(source), tokens_(std::move(tokens)) {}

  Result<Policy> Run() {
    if (!AcceptIdent("pktstream")) {
      return Error("policy must start with 'pktstream'");
    }
    Policy policy;
    policy.name = name_;
    policy.source_text = source_;

    while (Peek().kind == TokKind::kDot) {
      Next();  // '.'
      const Token op = Next();
      if (op.kind != TokKind::kIdent) {
        return Error("expected operator name after '.'");
      }
      if (!Expect(TokKind::kLParen)) {
        return Error("expected '(' after ." + op.text);
      }
      Status status = Status::Ok();
      if (op.text == "filter") {
        status = ParseFilter(policy);
      } else if (op.text == "groupby") {
        status = ParseGroupBy(policy);
      } else if (op.text == "map") {
        status = ParseMap(policy);
      } else if (op.text == "reduce") {
        status = ParseReduce(policy);
      } else if (op.text == "synthesize") {
        status = ParseSynthesize(policy);
      } else if (op.text == "collect") {
        status = ParseCollect(policy);
      } else {
        return Error("unknown operator '" + op.text + "'");
      }
      if (!status.ok()) {
        return status;
      }
      if (!Expect(TokKind::kRParen)) {
        return Error("expected ')' to close ." + op.text);
      }
    }
    if (Peek().kind != TokKind::kEnd) {
      return Error("unexpected trailing input");
    }

    Status status = ValidatePolicy(policy);
    if (!status.ok()) {
      return Status(status.code(), "policy '" + name_ + "': " + status.message());
    }
    return policy;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t idx = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[idx];
  }
  const Token& Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool Expect(TokKind kind) {
    if (Peek().kind == kind) {
      Next();
      return true;
    }
    return false;
  }
  bool AcceptIdent(const std::string& text) {
    if (Peek().kind == TokKind::kIdent && Peek().text == text) {
      Next();
      return true;
    }
    return false;
  }
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("policy '" + name_ + "' line " +
                                   std::to_string(Peek().line) + ": " + message);
  }

  Status ParseFilter(Policy& policy) {
    FilterExpr expr;
    for (;;) {
      const Token field_tok = Next();
      if (field_tok.kind != TokKind::kIdent) {
        return Error("expected predicate field name");
      }
      Predicate pred;
      // Shorthand: `tcp.exist` / `udp.exist` / `icmp.exist`.
      if (Peek().kind == TokKind::kDot) {
        Next();
        if (!AcceptIdent("exist")) {
          return Error("expected 'exist' after '" + field_tok.text + ".'");
        }
        pred.field = PredField::kProtocol;
        pred.op = PredOp::kEq;
        if (field_tok.text == "tcp") {
          pred.value = kProtoTcp;
        } else if (field_tok.text == "udp") {
          pred.value = kProtoUdp;
        } else if (field_tok.text == "icmp") {
          pred.value = kProtoIcmp;
        } else {
          return Error("unknown protocol '" + field_tok.text + "'");
        }
      } else {
        const auto field_it = PredFieldTable().find(field_tok.text);
        if (field_it == PredFieldTable().end()) {
          return Error("unknown predicate field '" + field_tok.text + "'");
        }
        pred.field = field_it->second;
        const Token op_tok = Next();
        if (op_tok.kind != TokKind::kOp) {
          return Error("expected comparison operator");
        }
        if (op_tok.text == "==") {
          pred.op = PredOp::kEq;
        } else if (op_tok.text == "!=") {
          pred.op = PredOp::kNe;
        } else if (op_tok.text == "<") {
          pred.op = PredOp::kLt;
        } else if (op_tok.text == "<=") {
          pred.op = PredOp::kLe;
        } else if (op_tok.text == ">") {
          pred.op = PredOp::kGt;
        } else if (op_tok.text == ">=") {
          pred.op = PredOp::kGe;
        } else {
          return Error("unknown comparison '" + op_tok.text + "'");
        }
        const Token value_tok = Next();
        if (value_tok.kind != TokKind::kNumber) {
          return Error("expected numeric predicate value");
        }
        pred.value = static_cast<uint64_t>(value_tok.number);
      }
      expr.conjuncts.push_back(pred);
      if (Peek().kind == TokKind::kOp && Peek().text == "&&") {
        Next();
        continue;
      }
      break;
    }
    policy.ops.push_back(FilterOp{std::move(expr)});
    return Status::Ok();
  }

  Status ParseGroupBy(Policy& policy) {
    GroupByOp op;
    for (;;) {
      const Token g = Next();
      if (g.kind != TokKind::kIdent) {
        return Error("expected granularity name");
      }
      const auto it = GranularityTable().find(g.text);
      if (it == GranularityTable().end()) {
        return Error("unknown granularity '" + g.text + "'");
      }
      op.chain.push_back(it->second);
      if (!Expect(TokKind::kComma)) {
        break;
      }
    }
    policy.ops.push_back(std::move(op));
    return Status::Ok();
  }

  Status ParseMap(Policy& policy) {
    const Token dst = Next();
    if (dst.kind != TokKind::kIdent) {
      return Error("expected map destination field");
    }
    if (!Expect(TokKind::kComma)) {
      return Error("expected ',' in map");
    }
    const Token src = Next();
    if (src.kind != TokKind::kIdent) {
      return Error("expected map source field (or '_')");
    }
    if (!Expect(TokKind::kComma)) {
      return Error("expected ',' before mapping function");
    }
    const Token fn = Next();
    const auto it = MapFnTable().find(fn.text);
    if (fn.kind != TokKind::kIdent || it == MapFnTable().end()) {
      return Error("unknown mapping function '" + fn.text + "'");
    }
    policy.ops.push_back(MapOp{dst.text, src.text == "_" ? "" : src.text, it->second});
    return Status::Ok();
  }

  Status ParseReduceSpec(ReduceSpec& spec) {
    const Token fn = Next();
    const auto it = ReduceFnTable().find(fn.text);
    if (fn.kind != TokKind::kIdent || it == ReduceFnTable().end()) {
      return Error("unknown reducing function '" + fn.text + "'");
    }
    spec.fn = it->second;
    if (Peek().kind != TokKind::kLBrace) {
      return Status::Ok();
    }
    Next();  // '{'
    // The limit becomes a slot width: bound it before the cast.
    const auto set_limit = [&](double v) {
      if (!IsSlotWidth(v)) {
        return Error("f_array limit must be an integer in [1, " + std::to_string(kMaxSlotWidth) +
                     "]");
      }
      spec.array_limit = static_cast<uint32_t>(v);
      return Status::Ok();
    };
    int positional = 0;
    for (;;) {
      if (Peek().kind == TokKind::kIdent) {
        const std::string key = Next().text;
        if (!(Peek().kind == TokKind::kOp && Peek().text == "=")) {
          return Error("expected '=' after parameter name '" + key + "'");
        }
        Next();
        const Token value = Next();
        if (value.kind != TokKind::kNumber) {
          return Error("expected numeric value for parameter '" + key + "'");
        }
        if (key == "decay" || key == "lambda") {
          spec.decay_lambda = value.number;
        } else if (key == "width") {
          spec.param0 = value.number;
        } else if (key == "bins") {
          spec.param1 = value.number;
        } else if (key == "q") {
          spec.param0 = value.number;
        } else if (key == "limit") {
          if (Status status = set_limit(value.number); !status.ok()) {
            return status;
          }
        } else {
          return Error("unknown parameter '" + key + "'");
        }
      } else if (Peek().kind == TokKind::kNumber) {
        const double v = Next().number;
        if (spec.fn == ReduceFn::kArray) {
          if (Status status = set_limit(v); !status.ok()) {
            return status;
          }
        } else if (positional == 0) {
          spec.param0 = v;
        } else if (positional == 1) {
          spec.param1 = v;
        } else {
          return Error("too many positional parameters");
        }
        ++positional;
      } else {
        return Error("expected parameter in braces");
      }
      if (Expect(TokKind::kComma)) {
        continue;
      }
      break;
    }
    if (!Expect(TokKind::kRBrace)) {
      return Error("expected '}' after parameters");
    }
    return Status::Ok();
  }

  Status ParseReduce(Policy& policy) {
    const Token src = Next();
    if (src.kind != TokKind::kIdent) {
      return Error("expected reduce source field");
    }
    if (!Expect(TokKind::kComma)) {
      return Error("expected ',' in reduce");
    }
    ReduceOp op;
    op.src = src.text;
    if (!Expect(TokKind::kLBracket)) {
      return Error("expected '[' starting the reducing-function list");
    }
    for (;;) {
      ReduceSpec spec;
      Status status = ParseReduceSpec(spec);
      if (!status.ok()) {
        return status;
      }
      op.specs.push_back(spec);
      if (Expect(TokKind::kComma)) {
        continue;
      }
      break;
    }
    if (!Expect(TokKind::kRBracket)) {
      return Error("expected ']' closing the reducing-function list");
    }
    // Optional trailing granularity restriction: .reduce(size, [...], host).
    if (Expect(TokKind::kComma)) {
      const Token g = Next();
      const auto it = g.kind == TokKind::kIdent ? GranularityTable().find(g.text)
                                                : GranularityTable().end();
      if (it == GranularityTable().end()) {
        return Error("expected granularity after the reducing-function list");
      }
      op.at = it->second;
    }
    policy.ops.push_back(std::move(op));
    return Status::Ok();
  }

  Status ParseSynthesize(Policy& policy) {
    const Token fn = Next();
    const auto it = SynthFnTable().find(fn.text);
    if (fn.kind != TokKind::kIdent || it == SynthFnTable().end()) {
      return Error("unknown synthesizing function '" + fn.text + "'");
    }
    SynthOp op;
    op.fn = it->second;
    if (!Expect(TokKind::kLParen)) {
      return Error("expected '(' after synthesizing function");
    }
    // Source feature: ident or ident.ident ("size.f_mean").
    const Token src = Next();
    if (src.kind != TokKind::kIdent) {
      return Error("expected source feature for synthesize");
    }
    op.src = src.text;
    if (Peek().kind == TokKind::kDot) {
      Next();
      const Token sub = Next();
      if (sub.kind != TokKind::kIdent) {
        return Error("expected function name after '.' in synthesize source");
      }
      op.src += "." + sub.text;
    }
    if (Expect(TokKind::kComma)) {
      const Token n = Next();
      if (n.kind != TokKind::kNumber) {
        return Error("expected numeric synthesize parameter");
      }
      op.param0 = n.number;
    }
    if (!Expect(TokKind::kRParen)) {
      return Error("expected ')' closing synthesize source");
    }
    policy.ops.push_back(std::move(op));
    return Status::Ok();
  }

  Status ParseCollect(Policy& policy) {
    const Token unit = Next();
    if (unit.kind != TokKind::kIdent) {
      return Error("expected collect unit");
    }
    CollectOp op;
    if (unit.text == "pkt") {
      op.per_packet = true;
    } else {
      const auto it = GranularityTable().find(unit.text);
      if (it == GranularityTable().end()) {
        return Error("unknown collect unit '" + unit.text + "'");
      }
      op.unit = it->second;
    }
    policy.ops.push_back(op);
    return Status::Ok();
  }

  std::string name_;
  const std::string& source_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Policy> ParsePolicy(const std::string& name, const std::string& source) {
  Lexer lexer(source);
  auto tokens = lexer.Run();
  if (!tokens.ok()) {
    return Status(tokens.status().code(), "policy '" + name + "': " + tokens.status().message());
  }
  Parser parser(name, source, std::move(tokens).value());
  return parser.Run();
}

}  // namespace superfe

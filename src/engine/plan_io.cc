#include "engine/plan_io.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/operators.h"

namespace dsps::engine {

namespace {

using Func = WindowAggregateOp::Func;

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FmtInts(const std::vector<int>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

std::string FmtBox(const interest::Box& box) {
  std::string out;
  for (size_t i = 0; i < box.size(); ++i) {
    if (i > 0) out += ',';
    out += FmtDouble(box[i].lo) + ":" + FmtDouble(box[i].hi);
  }
  return out;
}

const char* FuncName(Func f) {
  switch (f) {
    case Func::kCount:
      return "count";
    case Func::kSum:
      return "sum";
    case Func::kAvg:
      return "avg";
    case Func::kMin:
      return "min";
    case Func::kMax:
      return "max";
  }
  return "?";
}

common::Result<Func> ParseFunc(const std::string& s) {
  if (s == "count") return Func::kCount;
  if (s == "sum") return Func::kSum;
  if (s == "avg") return Func::kAvg;
  if (s == "min") return Func::kMin;
  if (s == "max") return Func::kMax;
  return common::Status::InvalidArgument("unknown aggregate func: " + s);
}

/// key=value pairs from the remainder of an OP line.
using Params = std::map<std::string, std::string>;

common::Result<std::string> Param(const Params& params,
                                  const std::string& key) {
  auto it = params.find(key);
  if (it == params.end()) {
    return common::Status::InvalidArgument("missing param: " + key);
  }
  return it->second;
}

common::Result<double> ParamDouble(const Params& params,
                                   const std::string& key) {
  auto v = Param(params, key);
  if (!v.ok()) return v.status();
  return std::strtod(v.value().c_str(), nullptr);
}

common::Result<int> ParamInt(const Params& params, const std::string& key) {
  auto v = Param(params, key);
  if (!v.ok()) return v.status();
  return static_cast<int>(std::strtol(v.value().c_str(), nullptr, 10));
}

std::vector<int> SplitInts(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(static_cast<int>(std::strtol(item.c_str(), nullptr, 10)));
    }
  }
  return out;
}

common::Result<interest::Box> ParseBox(const std::string& s) {
  interest::Box box;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return common::Status::InvalidArgument("bad box interval: " + item);
    }
    box.push_back(interest::Interval{
        std::strtod(item.substr(0, colon).c_str(), nullptr),
        std::strtod(item.substr(colon + 1).c_str(), nullptr)});
  }
  return box;
}

/// The declarative body of one operator, excluding cost/sel.
common::Result<std::string> DescribeOp(const Operator& op) {
  if (const auto* f = dynamic_cast<const FilterOp*>(&op)) {
    return "Filter dims=" + FmtInts(f->numeric_indices()) +
           " box=" + FmtBox(f->box());
  }
  if (const auto* m = dynamic_cast<const MapOp*>(&op)) {
    return "Map keep=" + FmtInts(m->keep_indices()) +
           " scale=" + FmtDouble(m->scale());
  }
  if (const auto* j = dynamic_cast<const WindowJoinOp*>(&op)) {
    return "WindowJoin window=" + FmtDouble(j->window_s()) +
           " lkey=" + std::to_string(j->left_key()) +
           " rkey=" + std::to_string(j->right_key());
  }
  if (const auto* a = dynamic_cast<const SlidingWindowAggregateOp*>(&op)) {
    return std::string("SlidingWindowAggregate window=") +
           FmtDouble(a->window_s()) + " slide=" + FmtDouble(a->slide_s()) +
           " func=" + FuncName(a->func()) +
           " key=" + std::to_string(a->key_field()) +
           " value=" + std::to_string(a->value_field());
  }
  if (const auto* a = dynamic_cast<const WindowAggregateOp*>(&op)) {
    return std::string("WindowAggregate window=") + FmtDouble(a->window_s()) +
           " func=" + FuncName(a->func()) +
           " key=" + std::to_string(a->key_field()) +
           " value=" + std::to_string(a->value_field());
  }
  if (const auto* t = dynamic_cast<const TopKOp*>(&op)) {
    return "TopK window=" + FmtDouble(t->window_s()) +
           " k=" + std::to_string(t->k()) +
           " key=" + std::to_string(t->key_field()) +
           " value=" + std::to_string(t->value_field());
  }
  if (const auto* d = dynamic_cast<const DistinctOp*>(&op)) {
    return "Distinct window=" + FmtDouble(d->window_s()) +
           " key=" + std::to_string(d->key_field());
  }
  if (const auto* u = dynamic_cast<const UnionOp*>(&op)) {
    return "Union inputs=" + std::to_string(u->num_inputs());
  }
  return common::Status::InvalidArgument(
      std::string("operator has no declarative form: ") + op.name());
}

/// Rejects an out-of-range operator parameter up front, so a malformed
/// plan is an InvalidArgument instead of a constructor DSPS_CHECK abort.
common::Status Require(bool valid, const std::string& kind,
                       const char* rule) {
  if (valid) return common::Status::OK();
  return common::Status::InvalidArgument(kind + ": " + rule);
}

common::Result<std::unique_ptr<Operator>> MakeOp(const std::string& kind,
                                                 const Params& params) {
  std::unique_ptr<Operator> op;
  if (kind == "Filter") {
    auto dims = Param(params, "dims");
    auto box = Param(params, "box");
    if (!dims.ok()) return dims.status();
    if (!box.ok()) return box.status();
    auto parsed = ParseBox(box.value());
    if (!parsed.ok()) return parsed.status();
    std::vector<int> indices = SplitInts(dims.value());
    DSPS_RETURN_IF_ERROR(Require(indices.size() == parsed.value().size(),
                                 kind, "dims and box arity differ"));
    op = std::make_unique<FilterOp>(std::move(indices),
                                    std::move(parsed).value());
  } else if (kind == "Map") {
    auto keep = Param(params, "keep");
    auto scale = ParamDouble(params, "scale");
    if (!keep.ok()) return keep.status();
    if (!scale.ok()) return scale.status();
    op = std::make_unique<MapOp>(SplitInts(keep.value()), scale.value());
  } else if (kind == "WindowJoin") {
    auto window = ParamDouble(params, "window");
    auto lkey = ParamInt(params, "lkey");
    auto rkey = ParamInt(params, "rkey");
    if (!window.ok()) return window.status();
    if (!lkey.ok()) return lkey.status();
    if (!rkey.ok()) return rkey.status();
    DSPS_RETURN_IF_ERROR(Require(window.value() > 0, kind, "window <= 0"));
    op = std::make_unique<WindowJoinOp>(window.value(), lkey.value(),
                                        rkey.value());
  } else if (kind == "WindowAggregate" || kind == "SlidingWindowAggregate") {
    auto window = ParamDouble(params, "window");
    auto func_s = Param(params, "func");
    auto key = ParamInt(params, "key");
    auto value = ParamInt(params, "value");
    if (!window.ok()) return window.status();
    if (!func_s.ok()) return func_s.status();
    if (!key.ok()) return key.status();
    if (!value.ok()) return value.status();
    auto func = ParseFunc(func_s.value());
    if (!func.ok()) return func.status();
    DSPS_RETURN_IF_ERROR(Require(window.value() > 0, kind, "window <= 0"));
    if (kind == "WindowAggregate") {
      op = std::make_unique<WindowAggregateOp>(window.value(), func.value(),
                                               key.value(), value.value());
    } else {
      auto slide = ParamDouble(params, "slide");
      if (!slide.ok()) return slide.status();
      DSPS_RETURN_IF_ERROR(Require(slide.value() > 0, kind, "slide <= 0"));
      op = std::make_unique<SlidingWindowAggregateOp>(
          window.value(), slide.value(), func.value(), key.value(),
          value.value());
    }
  } else if (kind == "TopK") {
    auto window = ParamDouble(params, "window");
    auto k = ParamInt(params, "k");
    auto key = ParamInt(params, "key");
    auto value = ParamInt(params, "value");
    if (!window.ok()) return window.status();
    if (!k.ok()) return k.status();
    if (!key.ok()) return key.status();
    if (!value.ok()) return value.status();
    DSPS_RETURN_IF_ERROR(Require(window.value() > 0, kind, "window <= 0"));
    DSPS_RETURN_IF_ERROR(Require(k.value() >= 1, kind, "k < 1"));
    op = std::make_unique<TopKOp>(window.value(), k.value(), key.value(),
                                  value.value());
  } else if (kind == "Distinct") {
    auto window = ParamDouble(params, "window");
    auto key = ParamInt(params, "key");
    if (!window.ok()) return window.status();
    if (!key.ok()) return key.status();
    DSPS_RETURN_IF_ERROR(Require(window.value() > 0, kind, "window <= 0"));
    op = std::make_unique<DistinctOp>(window.value(), key.value());
  } else if (kind == "Union") {
    auto inputs = ParamInt(params, "inputs");
    if (!inputs.ok()) return inputs.status();
    DSPS_RETURN_IF_ERROR(Require(inputs.value() >= 1, kind, "inputs < 1"));
    op = std::make_unique<UnionOp>(inputs.value());
  } else {
    return common::Status::InvalidArgument("unknown operator kind: " + kind);
  }
  return op;
}

}  // namespace

common::Result<std::string> SerializePlan(const QueryPlan& plan) {
  std::string out = "PLAN v1\n";
  for (int i = 0; i < plan.num_operators(); ++i) {
    const Operator& op = plan.op(i);
    auto body = DescribeOp(op);
    if (!body.ok()) return body.status();
    out += "OP " + std::to_string(i) + " " + body.value() +
           " cost=" + FmtDouble(op.cost_per_tuple()) +
           " sel=" + FmtDouble(op.estimated_selectivity()) + "\n";
  }
  for (const PlanEdge& e : plan.edges()) {
    out += "EDGE " + std::to_string(e.from) + " " + std::to_string(e.to) +
           " " + std::to_string(e.to_port) + "\n";
  }
  for (const StreamBinding& b : plan.bindings()) {
    out += "BIND " + std::to_string(b.stream) + " " + std::to_string(b.to) +
           " " + std::to_string(b.to_port) + "\n";
  }
  return out;
}

common::Result<std::unique_ptr<QueryPlan>> ParsePlan(const std::string& text) {
  auto plan = std::make_unique<QueryPlan>();
  std::stringstream lines(text);
  std::string line;
  bool saw_header = false;
  int expected_op = 0;
  while (std::getline(lines, line)) {
    // Strip comments and whitespace-only lines.
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::stringstream ss(line);
    std::string token;
    if (!(ss >> token)) continue;
    if (token == "PLAN") {
      std::string version;
      ss >> version;
      if (version != "v1") {
        return common::Status::InvalidArgument("unsupported plan version");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) {
      return common::Status::InvalidArgument("missing PLAN header");
    }
    if (token == "OP") {
      int id;
      std::string kind;
      if (!(ss >> id >> kind)) {
        return common::Status::InvalidArgument("malformed OP line: " + line);
      }
      if (id != expected_op) {
        return common::Status::InvalidArgument("OP ids must be sequential");
      }
      Params params;
      std::string kv;
      while (ss >> kv) {
        size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          return common::Status::InvalidArgument("malformed param: " + kv);
        }
        params[kv.substr(0, eq)] = kv.substr(eq + 1);
      }
      auto op = MakeOp(kind, params);
      if (!op.ok()) return op.status();
      auto cost = ParamDouble(params, "cost");
      auto sel = ParamDouble(params, "sel");
      if (cost.ok()) op.value()->set_cost_per_tuple(cost.value());
      if (sel.ok()) op.value()->set_estimated_selectivity(sel.value());
      plan->AddOperator(std::move(op).value());
      ++expected_op;
      continue;
    }
    if (token == "EDGE") {
      int from, to, port;
      if (!(ss >> from >> to >> port)) {
        return common::Status::InvalidArgument("malformed EDGE line: " + line);
      }
      DSPS_RETURN_IF_ERROR(plan->Connect(from, to, port));
      continue;
    }
    if (token == "BIND") {
      int stream, to, port;
      if (!(ss >> stream >> to >> port)) {
        return common::Status::InvalidArgument("malformed BIND line: " + line);
      }
      DSPS_RETURN_IF_ERROR(plan->BindStream(stream, to, port));
      continue;
    }
    return common::Status::InvalidArgument("unknown record: " + token);
  }
  DSPS_RETURN_IF_ERROR(plan->Validate());
  return plan;
}

}  // namespace dsps::engine

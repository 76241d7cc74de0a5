#include "analysis/model.h"

#include "support/str.h"

namespace polypart::analysis {

using pset::BasicSet;
using pset::Constraint;
using pset::LinExpr;
using pset::Map;
using pset::Space;

const char* strategyName(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::SplitX: return "x";
    case PartitionStrategy::SplitY: return "y";
    case PartitionStrategy::SplitZ: return "z";
  }
  return "?";
}

namespace {

PartitionStrategy strategyFromName(const std::string& s) {
  if (s == "x") return PartitionStrategy::SplitX;
  if (s == "y") return PartitionStrategy::SplitY;
  if (s == "z") return PartitionStrategy::SplitZ;
  throw ModelFormatError("unknown partition strategy: " + s);
}

json::Value rowToJson(const LinExpr& e) {
  json::Value arr = json::Value::array();
  for (const i64 v : e.row()) arr.push(v);
  return arr;
}

LinExpr rowFromJson(const json::Value& v, std::size_t cols) {
  const json::Array& a = v.asArray();
  if (a.size() != cols) throw ModelFormatError("constraint row width mismatch");
  LinExpr e;
  e.row().resize(cols);
  for (std::size_t i = 0; i < cols; ++i) e.row()[i] = a[i].asInt();
  return e;
}

json::Value mapToJson(const Map& m) {
  json::Value out = json::Value::object();
  json::Value ins = json::Value::array();
  for (const std::string& n : m.space().inNames()) ins.push(n);
  json::Value outs = json::Value::array();
  for (const std::string& n : m.space().outNames()) outs.push(n);
  out["in"] = std::move(ins);
  out["out"] = std::move(outs);
  out["exact"] = m.exact();
  json::Value parts = json::Value::array();
  for (const BasicSet& bs : m.parts()) {
    json::Value cons = json::Value::array();
    for (const Constraint& c : bs.constraints()) {
      json::Value cv = json::Value::object();
      cv["eq"] = c.isEquality;
      cv["row"] = rowToJson(c.expr);
      cons.push(std::move(cv));
    }
    parts.push(std::move(cons));
  }
  out["parts"] = std::move(parts);
  return out;
}

Map mapFromJson(const json::Value& v, const Space& paramSpace) {
  std::vector<std::string> ins, outs;
  for (const json::Value& n : v.at("in").asArray()) ins.push_back(n.asString());
  for (const json::Value& n : v.at("out").asArray()) outs.push_back(n.asString());
  Space space = Space::map(paramSpace.paramNames(), std::move(ins), std::move(outs));
  Map m(space);
  if (!v.at("exact").asBool()) m.markInexact();
  for (const json::Value& pv : v.at("parts").asArray()) {
    BasicSet bs(space);
    for (const json::Value& cv : pv.asArray()) {
      bs.add(Constraint{rowFromJson(cv.at("row"), space.cols()),
                        cv.at("eq").asBool()});
    }
    m.addPart(std::move(bs));
  }
  return m;
}

bool isArrayFromJson(const json::Value& v) {
  const std::string& s = v.asString();
  if (s == "array") return true;
  if (s == "scalar") return false;
  throw ModelFormatError("model field \"kind\" has unknown value \"" + s + "\"");
}

ir::Type typeFromJson(const json::Value& v, const char* field) {
  const std::string& s = v.asString();
  if (s == "i64") return ir::Type::I64;
  if (s == "f64") return ir::Type::F64;
  throw ModelFormatError(std::string("model field \"") + field +
                         "\" has unknown value \"" + s + "\"");
}

}  // namespace

Space modelParamSpace(const ir::Kernel& kernel) {
  std::vector<std::string> params = {"bdx", "bdy", "bdz", "gdx", "gdy", "gdz"};
  for (const ir::Param& p : kernel.params())
    if (!p.isArray && p.type == ir::Type::I64) params.push_back(p.name);
  return Space::set(std::move(params), {});
}

Space accessMapSpace(const Space& paramSpace, std::size_t rank) {
  std::vector<std::string> outs;
  for (std::size_t i = 0; i < rank; ++i) outs.push_back("a" + std::to_string(i));
  return Space::map(paramSpace.paramNames(),
                    {"box", "boy", "boz", "bx", "by", "bz"}, std::move(outs));
}

Space KernelModel::paramSpace() const {
  std::vector<std::string> names = {"bdx", "bdy", "bdz", "gdx", "gdy", "gdz"};
  for (const ParamInfo& p : params)
    if (!p.isArray && p.type == ir::Type::I64) names.push_back(p.name);
  return Space::set(std::move(names), {});
}

const ArrayModel* KernelModel::arrayFor(std::size_t argIndex) const {
  for (const ArrayModel& a : arrays)
    if (a.argIndex == argIndex) return &a;
  return nullptr;
}

json::Value KernelModel::toJson() const {
  json::Value out = json::Value::object();
  out["kernel"] = kernel;
  out["strategy"] = strategyName(strategy);
  json::Value unitGrid = json::Value::array();
  for (bool b : requiresUnitGrid) unitGrid.push(b);
  out["requires_unit_grid"] = std::move(unitGrid);
  json::Value unitBlock = json::Value::array();
  for (bool b : requiresUnitBlock) unitBlock.push(b);
  out["requires_unit_block"] = std::move(unitBlock);

  json::Value ps = json::Value::array();
  for (const ParamInfo& p : params) {
    json::Value pv = json::Value::object();
    pv["name"] = p.name;
    pv["kind"] = p.isArray ? "array" : "scalar";
    pv["type"] = ir::typeName(p.type);
    if (p.modelParamIndex != static_cast<std::size_t>(-1))
      pv["param_index"] = static_cast<i64>(p.modelParamIndex);
    ps.push(std::move(pv));
  }
  out["params"] = std::move(ps);

  json::Value as = json::Value::array();
  for (const ArrayModel& a : arrays) {
    json::Value av = json::Value::object();
    av["arg"] = static_cast<i64>(a.argIndex);
    av["name"] = a.name;
    av["elem"] = ir::typeName(a.elemType);
    json::Value shape = json::Value::array();
    for (const LinExpr& s : a.shape) shape.push(rowToJson(s));
    av["shape"] = std::move(shape);
    av["read"] = mapToJson(a.read);
    av["write"] = mapToJson(a.write);
    av["read_may_access"] = a.readMayAccess;
    av["write_may_access"] = a.writeMayAccess;
    if (!a.mayAccessWhy.empty()) av["may_access_why"] = a.mayAccessWhy;
    as.push(std::move(av));
  }
  out["arrays"] = std::move(as);
  return out;
}

KernelModel KernelModel::fromJson(const json::Value& v) {
  KernelModel m;
  m.kernel = v.at("kernel").asString();
  m.strategy = strategyFromName(v.at("strategy").asString());
  const json::Array& unit = v.at("requires_unit_grid").asArray();
  if (unit.size() != 3) throw ModelFormatError("requires_unit_grid must have 3 entries");
  for (std::size_t i = 0; i < 3; ++i) m.requiresUnitGrid[i] = unit[i].asBool();
  const json::Array& unitB = v.at("requires_unit_block").asArray();
  if (unitB.size() != 3) throw ModelFormatError("requires_unit_block must have 3 entries");
  for (std::size_t i = 0; i < 3; ++i) m.requiresUnitBlock[i] = unitB[i].asBool();

  for (const json::Value& pv : v.at("params").asArray()) {
    ParamInfo p;
    p.name = pv.at("name").asString();
    p.isArray = isArrayFromJson(pv.at("kind"));
    p.type = typeFromJson(pv.at("type"), "type");
    if (const json::Value* idx = pv.asObject().find("param_index"))
      p.modelParamIndex = static_cast<std::size_t>(idx->asInt());
    m.params.push_back(std::move(p));
  }

  Space paramSpace = m.paramSpace();
  for (const json::Value& av : v.at("arrays").asArray()) {
    ArrayModel a;
    a.argIndex = static_cast<std::size_t>(av.at("arg").asInt());
    a.name = av.at("name").asString();
    a.elemType = typeFromJson(av.at("elem"), "elem");
    for (const json::Value& sv : av.at("shape").asArray())
      a.shape.push_back(rowFromJson(sv, paramSpace.cols()));
    a.read = mapFromJson(av.at("read"), paramSpace);
    a.write = mapFromJson(av.at("write"), paramSpace);
    // Files from before the instrumented-write tier was retired carry
    // "write_instrumented"; `false` is harmless, but `true` marks an array
    // whose writes nothing would track any more.
    if (const json::Value* wi = av.asObject().find("write_instrumented");
        wi != nullptr && wi->asBool())
      throw ModelFormatError("kernel '" + m.kernel + "', array '" + a.name +
                             "': write_instrumented models are no longer "
                             "supported; re-run the analysis");
    // May-access fields are absent in pre-tier model files (still loadable).
    if (const json::Value* rm = av.asObject().find("read_may_access"))
      a.readMayAccess = rm->asBool();
    if (const json::Value* wm = av.asObject().find("write_may_access"))
      a.writeMayAccess = wm->asBool();
    if (const json::Value* why = av.asObject().find("may_access_why"))
      a.mayAccessWhy = why->asString();
    m.arrays.push_back(std::move(a));
  }
  return m;
}

const KernelModel* ApplicationModel::find(const std::string& name) const {
  for (const KernelModel& k : kernels)
    if (k.kernel == name) return &k;
  return nullptr;
}

json::Value ApplicationModel::toJson() const {
  json::Value out = json::Value::object();
  out["format"] = "polypart-model-v1";
  json::Value ks = json::Value::array();
  for (const KernelModel& k : kernels) ks.push(k.toJson());
  out["kernels"] = std::move(ks);
  return out;
}

ApplicationModel ApplicationModel::fromJson(const json::Value& v) {
  if (v.at("format").asString() != "polypart-model-v1")
    throw ModelFormatError("unsupported model format");
  ApplicationModel app;
  for (const json::Value& kv : v.at("kernels").asArray())
    app.kernels.push_back(KernelModel::fromJson(kv));
  return app;
}

void ApplicationModel::saveTo(const std::string& path) const {
  writeFile(path, toJson().dump(2));
}

ApplicationModel ApplicationModel::loadFrom(const std::string& path) {
  return fromJson(json::Value::parse(readFile(path)));
}

}  // namespace polypart::analysis

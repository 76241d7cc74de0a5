// Counter-table tests (support/counters.h): the operations RuntimeStats and
// MachineStats derive from their row lists.  Each table's header also
// static_asserts that sizeof equals the sum of its row sizes, so a field
// declared outside the list does not compile.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <type_traits>

#include "rt/runtime.h"
#include "support/counters.h"
#include "support/json.h"
#include "support/trace.h"

namespace polypart {
namespace {

/// A table whose k-th row holds base + k: every row distinct.
template <class T>
T distinct(i64 base) {
  T t;
  i64 k = 0;
  T::forEach([&](const char*, auto m) {
    using V = std::remove_reference_t<decltype(t.*m)>;
    t.*m = static_cast<V>(base + ++k);
  });
  return t;
}

template <class T>
void expectSumAddsEveryRow() {
  const T a = distinct<T>(100);
  const T b = distinct<T>(1000);
  const T sum = a + b;
  T::forEach([&](const char* name, auto m) {
    EXPECT_EQ(sum.*m, a.*m + b.*m) << name;
  });
  T c = a;
  c += b;
  EXPECT_EQ(c, sum);
}

TEST(Counters, SumAddsEveryRow) {
  expectSumAddsEveryRow<rt::RuntimeStats>();
  expectSumAddsEveryRow<sim::MachineStats>();
}

template <class T>
void expectOneJsonKeyPerField() {
  const T a = distinct<T>(40);
  json::Value o = json::Value::object();
  a.addTo(o);
  std::size_t rows = 0;
  T::forEach([&](const char* name, auto m) {
    ++rows;
    ASSERT_TRUE(o.asObject().contains(name)) << name;
    EXPECT_EQ(o.at(name).asDouble(), static_cast<double>(a.*m)) << name;
  });
  EXPECT_EQ(o.asObject().size(), rows);
}

TEST(Counters, JsonHasOneKeyPerField) {
  expectOneJsonKeyPerField<rt::RuntimeStats>();
  expectOneJsonKeyPerField<sim::MachineStats>();
}

TEST(Counters, TraceChangesSamplesOnlyMovedRows) {
  rt::RuntimeStats before;
  rt::RuntimeStats after = before;
  after.launches = 3;
  after.peerCopies = 2;
  sim::MachineStats machineBefore;
  sim::MachineStats machineAfter = machineBefore;
  machineAfter.bytesPeerToPeer = 12.5;

  trace::Tracer tracer;
  after.traceChanges(&tracer, before);
  machineAfter.traceChanges(&tracer, machineBefore);
  after.traceChanges(nullptr, before);  // a null tracer is a no-op
  before.traceChanges(&tracer, before);  // nothing moved: no samples

  const json::Value root = tracer.toJson();
  std::map<std::string, double> samples;
  for (const json::Value& ev : root.at("traceEvents").asArray())
    if (ev.at("ph").asString() == "C")
      samples[ev.at("name").asString()] = ev.at("args").at("value").asDouble();
  EXPECT_EQ(samples, (std::map<std::string, double>{
                         {"launches", 3}, {"peerCopies", 2},
                         {"bytesPeerToPeer", 12.5}}));
  EXPECT_EQ(tracer.eventCount(), 3u);
}

}  // namespace
}  // namespace polypart

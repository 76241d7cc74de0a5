#pragma once

// Counter tables: every counter is declared once, in an X-macro list.
//
// RuntimeStats (rt/runtime.h) and MachineStats (sim/machine.h) are generated
// from such a list.  Each row names a counter's type and name (in the real
// lists every line ends in a backslash continuation):
//
//   #define MY_COUNTERS(X)
//     X(i64, launches) /* launches executed */
//     X(double, bytesMoved)
//
//   struct MyStats : counters::Table<MyStats> {
//     POLYPART_COUNTER_FIELDS(MyStats, MY_COUNTERS)
//   };
//
// The struct gets one zero-initialized field per row plus a visitor over the
// rows, and the Table base derives everything else from that visitor:
// field-wise sum, a JSON object keyed by field name (bench rows), and
// traceChanges() (one Chrome-trace counter sample per counter that moved).
// Adding a counter is one new row.
//
// Every row is a function of the configuration and the operation stream:
// equal across runs, with tracing on or off, so determinism checks compare
// whole tables with ==.  Host wall time is not a counter; the trace's wall
// spans measure it.

#include <cstddef>

#include "support/json.h"
#include "support/trace.h"

namespace polypart::counters {

/// Base of a counter table.  Derived::forEach(f), generated by
/// POLYPART_COUNTER_FIELDS, calls f(name, member) for every row in
/// declaration order; `member` is a pointer to the Derived data member.
template <class Derived>
struct Table {
  friend Derived& operator+=(Derived& a, const Derived& b) {
    Derived::forEach([&](const char*, auto m) { a.*m += b.*m; });
    return a;
  }
  friend Derived operator+(Derived a, const Derived& b) { return a += b; }

  /// Writes one key per row, named like the field, into the JSON object `o`.
  void addTo(json::Value& o) const {
    Derived::forEach([&](const char* name, auto m) { o[name] = self().*m; });
  }

  /// Samples every row whose value differs from `before` onto the
  /// Chrome-trace counter track named like the field.  No-op with a null
  /// tracer.
  void traceChanges(trace::Tracer* t, const Derived& before) const {
    if (t == nullptr) return;
    Derived::forEach([&](const char* name, auto m) {
      if (self().*m != before.*m)
        trace::counter(t, "counters", name, static_cast<double>(self().*m));
    });
  }

  bool operator==(const Table&) const = default;

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

}  // namespace polypart::counters

/// Expands a counter list inside its struct: one field per row, the row
/// visitor forEach, and kRowBytes, the sum of the row sizes (each table
/// static_asserts that its sizeof equals it, so a field declared outside the
/// list fails to compile).  Row comments must be /* */ comments: a //
/// comment would swallow the list's line continuation.
#define POLYPART_COUNTER_FIELD(type, name) type name = 0;
#define POLYPART_COUNTER_ROW(type, name) f(#name, &Self::name);
#define POLYPART_COUNTER_BYTES(type, name) +sizeof(type)
#define POLYPART_COUNTER_FIELDS(Struct, LIST)                              \
  LIST(POLYPART_COUNTER_FIELD)                                             \
  static constexpr std::size_t kRowBytes = 0 LIST(POLYPART_COUNTER_BYTES); \
  template <class F>                                                       \
  static constexpr void forEach(F&& f) {                                   \
    using Self = Struct;                                                   \
    LIST(POLYPART_COUNTER_ROW)                                             \
  }

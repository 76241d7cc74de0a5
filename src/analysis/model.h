#pragma once

// The polyhedral application model (paper Section 4).
//
// For each kernel, the model records the suggested partitioning strategy,
// the argument list, and per array argument the read and write access maps
// Z^6 -> Z^d over the thread-grid dimensions (blockOff, blockIdx) x (x,y,z).
//
// Space conventions (shared by analysis, codegen, and runtime):
//
//   parameters: [bdx, bdy, bdz, gdx, gdy, gdz, <i64 scalar args in kernel
//               declaration order>]
//   map inputs: [box, boy, boz, bx, by, bz]    (blockOff then blockIdx)
//   map outputs: [a0 .. a{d-1}]                (outermost array dim first;
//                                              a{d-1} is row-major contiguous)
//
// During analysis, thread-level maps additionally carry inputs
// [tx, ty, tz] at positions 6..8 plus one dimension per enclosing loop;
// those are projected away before the model is emitted (Section 4.1:
// "eliminating the threadId dimension").

#include <array>
#include <string>
#include <vector>

#include "ir/kernel.h"
#include "pset/map.h"
#include "support/json.h"

namespace polypart::analysis {

/// Number of fixed model parameters before the scalar kernel arguments.
inline constexpr std::size_t kFixedParams = 6;  // bd{x,y,z}, gd{x,y,z}

/// Grid axis along which the launcher should split the thread grid
/// (Section 4: "suggested partitioning strategy").
enum class PartitionStrategy { SplitX, SplitY, SplitZ };

const char* strategyName(PartitionStrategy s);

struct ParamInfo {
  std::string name;
  bool isArray = false;
  ir::Type type = ir::Type::I64;
  /// For i64 scalars: index into the model parameter space; npos otherwise.
  std::size_t modelParamIndex = static_cast<std::size_t>(-1);
};

/// Per-array-argument access model.
struct ArrayModel {
  std::size_t argIndex = 0;
  std::string name;
  ir::Type elemType = ir::Type::F64;
  /// Array shape, outermost dimension first, as affine rows over the model
  /// *parameter* space (set space with zero dims).  Empty when the array was
  /// declared without a shape (treated as one-dimensional).
  std::vector<pset::LinExpr> shape;
  /// Read map Z^6 -> Z^d; may be an over-approximation (exact() == false).
  pset::Map read;
  /// Write map Z^6 -> Z^d; guaranteed exact and thread-injective.
  pset::Map write;
  /// May-access tier (indirect subscripts, AnalysisOptions::allowMayAccess).
  /// readMayAccess: `read` is the whole-extent over-approximation of an
  /// unprovable read; the runtime may tighten it per launch with the
  /// inspector–executor.  writeMayAccess: `write` is empty and the runtime
  /// derives the written ranges from observed execution, merging
  /// owner-writes in ascending device order (Functional mode only).
  bool readMayAccess = false;
  bool writeMayAccess = false;
  /// Demotion diagnostic: why the access left the affine tier ("<reason> on
  /// '<param>'", naming the subscript expression).  Empty without demotion.
  std::string mayAccessWhy;

  bool hasReads() const { return !read.isEmpty(); }
  bool hasWrites() const { return !write.isEmpty(); }
  std::size_t rank() const { return shape.empty() ? 1 : shape.size(); }
};

struct KernelModel {
  std::string kernel;
  PartitionStrategy strategy = PartitionStrategy::SplitX;
  std::vector<ParamInfo> params;
  std::vector<ArrayModel> arrays;
  /// Axes whose blockIdx the kernel never reads.  Such kernels duplicate
  /// work across blocks in that axis, so the model is only valid for
  /// launches with gridDim == 1 there; the runtime validates this.
  std::array<bool, 3> requiresUnitGrid{false, false, false};
  /// Same for threadIdx: axes the kernel ignores require blockDim == 1.
  std::array<bool, 3> requiresUnitBlock{false, false, false};

  /// The model parameter space (set space, no dims).
  pset::Space paramSpace() const;

  /// Returns the array model for a given kernel argument, or nullptr.
  const ArrayModel* arrayFor(std::size_t argIndex) const;

  json::Value toJson() const;
  static KernelModel fromJson(const json::Value& v);
};

/// An application's models keyed by kernel name (the on-disk artifact that
/// pass 1 writes and pass 2 reads; paper Section 4.1: "the application model
/// is saved to disk").
struct ApplicationModel {
  std::vector<KernelModel> kernels;

  const KernelModel* find(const std::string& name) const;

  json::Value toJson() const;
  static ApplicationModel fromJson(const json::Value& v);

  void saveTo(const std::string& path) const;
  static ApplicationModel loadFrom(const std::string& path);
};

/// Builds the model parameter space for a kernel.
pset::Space modelParamSpace(const ir::Kernel& kernel);

/// Builds the Z^6 -> Z^d map space for an array of rank `d`.
pset::Space accessMapSpace(const pset::Space& paramSpace, std::size_t rank);

}  // namespace polypart::analysis

#pragma once

// CUDA Runtime API replacement surface (paper Section 8.4).
//
// "The CUDA replacement functions have identical prototypes to their CUDA
// API counterparts to ease code transformation and provide a stable
// interface."  The source-to-source rewriter (src/rewrite) substitutes
// cudaMalloc -> gpartMalloc and so on; the rewritten host code then links
// against these functions, which dispatch to the active Runtime.
//
// A current runtime is installed with ScopedGpartRuntime (the generated
// prologue does this from main()).

#include <cstddef>

#include "rt/runtime.h"

namespace polypart::rt {

/// Error codes, numbered like their cudaError_t counterparts.  No gpart*
/// function lets a polypart exception escape: errors become codes.
enum gpartError {
  gpartSuccess = 0,
  gpartErrorInvalidValue = 1,
  /// A launch the runtime rejects (cudaErrorInvalidConfiguration).
  gpartErrorInvalidConfiguration = 9,
  /// An operation the partitioned runtime does not support, such as a
  /// device-to-device memcpy (cudaErrorNotSupported).
  gpartErrorNotSupported = 801,
};

enum gpartMemcpyKind {
  gpartMemcpyHostToHost = 0,
  gpartMemcpyHostToDevice = 1,
  gpartMemcpyDeviceToHost = 2,
  gpartMemcpyDeviceToDevice = 3,
};

/// Installs `rt` as the process-wide runtime for the gpart* functions.
class ScopedGpartRuntime {
 public:
  explicit ScopedGpartRuntime(Runtime& rt);
  ~ScopedGpartRuntime();
  ScopedGpartRuntime(const ScopedGpartRuntime&) = delete;
  ScopedGpartRuntime& operator=(const ScopedGpartRuntime&) = delete;

 private:
  Runtime* previous_;
};

/// The active runtime; asserts when none is installed.
Runtime& gpartCurrentRuntime();

// -- cudaMalloc / cudaFree ----------------------------------------------------
/// gpartErrorInvalidValue for a null `devPtr` or a `size` Runtime::malloc
/// rejects (above INT64_MAX, or not a multiple of the 8-byte element size).
gpartError gpartMalloc(void** devPtr, std::size_t size);
gpartError gpartFree(void* devPtr);

// -- cudaMemcpy / cudaMemcpyAsync ---------------------------------------------
/// gpartErrorNotSupported for gpartMemcpyDeviceToDevice (Section 8.2);
/// gpartErrorInvalidValue for a `count` above INT64_MAX or larger than the
/// virtual buffer.
gpartError gpartMemcpy(void* dst, const void* src, std::size_t count,
                       gpartMemcpyKind kind);
gpartError gpartMemcpyAsync(void* dst, const void* src, std::size_t count,
                            gpartMemcpyKind kind);

// -- cudaGetDeviceCount / cudaDeviceSynchronize --------------------------------
gpartError gpartGetDeviceCount(int* count);
gpartError gpartDeviceSynchronize();

// -- kernel launch primitive inserted by the rewriter ---------------------------
/// gpartErrorInvalidConfiguration when the runtime rejects the launch (for
/// example a grid axis the kernel's model requires to be 1);
/// gpartErrorNotSupported when the kernel needs Functional execution in a
/// TimingOnly runtime.
gpartError gpartLaunchKernel(const char* kernelName, ir::Dim3 grid, ir::Dim3 block,
                             std::span<const LaunchArg> args);
gpartError gpartLaunchKernel(const char* kernelName, ir::Dim3 grid, ir::Dim3 block,
                             std::initializer_list<LaunchArg> args);

/// Overload set the rewriter relies on: wraps any launch argument into a
/// LaunchArg without the rewriter having to know scalar/array kinds.
inline LaunchArg gpartArgOf(void* devPtr) {
  return LaunchArg::ofBuffer(static_cast<VirtualBuffer*>(devPtr));
}
inline LaunchArg gpartArgOf(VirtualBuffer* devPtr) { return LaunchArg::ofBuffer(devPtr); }
inline LaunchArg gpartArgOf(double v) { return LaunchArg::ofFloat(v); }
inline LaunchArg gpartArgOf(float v) { return LaunchArg::ofFloat(v); }
inline LaunchArg gpartArgOf(i64 v) { return LaunchArg::ofInt(v); }
inline LaunchArg gpartArgOf(int v) { return LaunchArg::ofInt(v); }

}  // namespace polypart::rt

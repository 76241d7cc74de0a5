#include "rt/cuda_api.h"

namespace polypart::rt {

namespace {
Runtime* g_current = nullptr;
}

ScopedGpartRuntime::ScopedGpartRuntime(Runtime& rt) : previous_(g_current) {
  g_current = &rt;
}

ScopedGpartRuntime::~ScopedGpartRuntime() { g_current = previous_; }

Runtime& gpartCurrentRuntime() {
  PP_ASSERT_MSG(g_current != nullptr, "no gpart runtime installed");
  return *g_current;
}

gpartError gpartMalloc(void** devPtr, std::size_t size) {
  if (!devPtr) return gpartErrorInvalidValue;
  try {
    *devPtr = gpartCurrentRuntime().malloc(static_cast<i64>(size));
  } catch (const Error&) {
    return gpartErrorInvalidValue;  // negative, or not whole elements
  }
  return gpartSuccess;
}

gpartError gpartFree(void* devPtr) {
  if (!devPtr) return gpartErrorInvalidValue;
  gpartCurrentRuntime().free(static_cast<VirtualBuffer*>(devPtr));
  return gpartSuccess;
}

namespace {

MemcpyKind toKind(gpartMemcpyKind k) {
  switch (k) {
    case gpartMemcpyHostToHost: return MemcpyKind::HostToHost;
    case gpartMemcpyHostToDevice: return MemcpyKind::HostToDevice;
    case gpartMemcpyDeviceToHost: return MemcpyKind::DeviceToHost;
    case gpartMemcpyDeviceToDevice: return MemcpyKind::DeviceToDevice;
  }
  PP_ASSERT(false);
  return MemcpyKind::HostToHost;
}

}  // namespace

gpartError gpartMemcpy(void* dst, const void* src, std::size_t count,
                       gpartMemcpyKind kind) {
  try {
    gpartCurrentRuntime().memcpy(dst, src, static_cast<i64>(count),
                                 toKind(kind));
  } catch (const UnsupportedOperationError&) {
    return gpartErrorNotSupported;
  } catch (const Error&) {
    return gpartErrorInvalidValue;  // a count the buffer cannot hold
  }
  return gpartSuccess;
}

gpartError gpartMemcpyAsync(void* dst, const void* src, std::size_t count,
                            gpartMemcpyKind kind) {
  // The simulator models the asynchrony internally; the replacement issues
  // the same translated movement as the synchronous variant.
  return gpartMemcpy(dst, src, count, kind);
}

gpartError gpartGetDeviceCount(int* count) {
  if (!count) return gpartErrorInvalidValue;
  // Section 8.4: the replacement "always returns 1" so single-GPU host logic
  // keeps working unchanged.
  *count = gpartCurrentRuntime().getDeviceCount();
  return gpartSuccess;
}

gpartError gpartDeviceSynchronize() {
  gpartCurrentRuntime().deviceSynchronize();
  return gpartSuccess;
}

gpartError gpartLaunchKernel(const char* kernelName, ir::Dim3 grid, ir::Dim3 block,
                             std::span<const LaunchArg> args) {
  try {
    gpartCurrentRuntime().launch(kernelName, grid, block, args);
  } catch (const UnsupportedOperationError&) {
    return gpartErrorNotSupported;
  } catch (const Error&) {
    return gpartErrorInvalidConfiguration;
  }
  return gpartSuccess;
}

gpartError gpartLaunchKernel(const char* kernelName, ir::Dim3 grid, ir::Dim3 block,
                             std::initializer_list<LaunchArg> args) {
  return gpartLaunchKernel(kernelName, grid, block,
                           std::span<const LaunchArg>(args.begin(), args.size()));
}

}  // namespace polypart::rt

// Copyright (c) the CoTS reproduction authors.
// Small portability macros and constants shared across the library.

#ifndef COTS_UTIL_MACROS_H_
#define COTS_UTIL_MACROS_H_

#include <cstddef>

#define COTS_LIKELY(x) (__builtin_expect(!!(x), 1))
#define COTS_UNLIKELY(x) (__builtin_expect(!!(x), 0))

// Disallow copy and assign; place in the public section of a class.
#define COTS_DISALLOW_COPY_AND_ASSIGN(TypeName) \
  TypeName(const TypeName&) = delete;           \
  TypeName& operator=(const TypeName&) = delete

namespace cots {

/// Size (bytes) of a cache line on the target architecture. The paper's
/// cache-conscious hash table (Section 5.2.1) sizes its chain blocks as a
/// multiple of this. 64 bytes covers all mainstream x86/ARM parts.
inline constexpr std::size_t kCacheLineSize = 64;

}  // namespace cots

/// Aligns a type or member to a cache-line boundary to avoid false sharing.
#define COTS_CACHE_ALIGNED alignas(::cots::kCacheLineSize)

#endif  // COTS_UTIL_MACROS_H_

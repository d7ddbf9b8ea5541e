// Heap-allocation tally of the benchmark binary.  alloc_count.cc replaces
// the global operator new/delete of this binary only, so every `*_allocs`
// per-layer metric is an exact count, not a sample.
#pragma once

#include <cstdint>

namespace perf {

/// Allocations made by the calling thread since it started.
std::uint64_t thread_allocs();

}  // namespace perf

// Metric expectations that hold in both observability builds.
//
// Building with -DTOTA_OBS=OFF compiles every record operation
// (Counter::inc, Gauge::set/add, Histogram::record, Tracer::record) to a
// no-op, so every recorded value reads 0 there.  A test that asserts a
// recorded value compares it against recorded(n): the value it expects
// when metrics record, and 0 when they are compiled out.  A test whose
// only subject is the recording itself sits under `#if TOTA_OBS_ENABLED`
// instead.
#pragma once

#include "obs/metrics.h"

namespace tota::testing {

/// What a metric that recorded `n` reads in this build: `n`, or 0 when
/// TOTA_OBS_ENABLED is 0.
template <typename T>
constexpr T recorded(T n) {
  return TOTA_OBS_ENABLED ? n : T{};
}

}  // namespace tota::testing

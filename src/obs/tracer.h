// Event tracing: a bounded ring buffer of pipeline spans.
//
// The engine stamps one Span per interesting pipeline transition of a
// tuple — inject → propagate → store → (maintenance: retract / heal /
// probe) — keyed by the tuple's uid, which doubles as the *causality
// id*: every span carrying the same uid belongs to the life of the same
// distributed tuple, so filtering a trace by uid reconstructs that
// tuple's journey across nodes and time.
//
// The buffer is a fixed-capacity ring: recording never allocates after
// construction and never blocks the hot path; once full, the oldest
// spans are overwritten (dropped() says how many).  snapshot() returns
// the surviving spans oldest-first for export (see obs/export.h and the
// "trace" section of BENCH_*.json in docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "obs/metrics.h"  // for TOTA_OBS_ENABLED

namespace tota::obs {

/// Pipeline stage a span marks; names on the wire via stage_name().
enum class Stage : std::uint8_t {
  kInject = 0,     ///< a node put a locally-created tuple on the air
  kPropagate = 1,  ///< a node broadcast a tuple copy to its neighbours
  kStore = 2,      ///< a node installed a replica in its tuple space
  kRetract = 3,    ///< maintenance removed an unjustified replica
  kHeal = 4,       ///< a justified holder re-announced after damage
  kProbe = 5,      ///< hold-down expiry probed for surviving holders
};

/// Stable lower-case label of a stage ("inject", "store", …).
[[nodiscard]] const char* stage_name(Stage stage);

/// One traced pipeline transition.
struct Span {
  SimTime t;       ///< simulated time of the transition
  NodeId node;     ///< node the transition happened on
  Stage stage;     ///< which transition
  TupleUid cause;  ///< causality id: the distributed tuple's uid
  int hop;         ///< the copy's hop count at that moment
};

class Tracer {
 public:
  /// `capacity` = spans retained; the default keeps the trace section of
  /// a BENCH_*.json around a few hundred KB at worst.
  explicit Tracer(std::size_t capacity = 4096);

  /// Appends a span, overwriting the oldest when full.  No-op when
  /// TOTA_OBS_ENABLED is 0.
  void record(SimTime t, NodeId node, Stage stage, TupleUid cause, int hop);

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Spans currently held (≤ capacity).
  [[nodiscard]] std::size_t size() const;
  /// Spans ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Spans lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ - size();
  }

  /// Surviving spans, oldest first.
  [[nodiscard]] std::vector<Span> snapshot() const;

  void clear();

 private:
  std::vector<Span> ring_;
  std::uint64_t recorded_ = 0;
};

}  // namespace tota::obs

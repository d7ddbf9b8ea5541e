#include "obs/tracer.h"

#include <algorithm>

namespace tota::obs {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kInject:
      return "inject";
    case Stage::kPropagate:
      return "propagate";
    case Stage::kStore:
      return "store";
    case Stage::kRetract:
      return "retract";
    case Stage::kHeal:
      return "heal";
    case Stage::kProbe:
      return "probe";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : ring_(std::max<std::size_t>(1, capacity)) {}

void Tracer::record(SimTime t, NodeId node, Stage stage, TupleUid cause,
                    int hop) {
#if TOTA_OBS_ENABLED
  ring_[recorded_ % ring_.size()] = Span{t, node, stage, cause, hop};
  ++recorded_;
#else
  (void)t;
  (void)node;
  (void)stage;
  (void)cause;
  (void)hop;
#endif
}

std::size_t Tracer::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(recorded_, ring_.size()));
}

std::vector<Span> Tracer::snapshot() const {
  std::vector<Span> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest surviving span sits at recorded_ % capacity once wrapped.
  const std::size_t start =
      recorded_ > ring_.size()
          ? static_cast<std::size_t>(recorded_ % ring_.size())
          : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void Tracer::clear() { recorded_ = 0; }

}  // namespace tota::obs

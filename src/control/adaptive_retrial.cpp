#include "src/control/adaptive_retrial.h"

#include "src/control/governor.h"

namespace anyqos::control {

AdaptiveRetrialPolicy::AdaptiveRetrialPolicy(const OverloadGovernor& governor)
    : governor_(&governor) {}

bool AdaptiveRetrialPolicy::keep_going(std::size_t attempts_made) const {
  return attempts_made < governor_->effective_max_tries();
}

std::size_t AdaptiveRetrialPolicy::max_attempts() const {
  return governor_->max_tries_ceiling();
}

std::string AdaptiveRetrialPolicy::name() const {
  return "adaptive(R<=" + std::to_string(governor_->max_tries_ceiling()) + ")";
}

}  // namespace anyqos::control

// Retrial control driven by the overload governor's feedback loop.
//
// Drop-in for the paper's CounterRetrialPolicy: keep_going() enforces the
// governor's *effective* bound, which AIMD tightens toward a floor when
// the backbone runs hot and relaxes back toward the static ceiling R when
// it cools (see governor.h). max_attempts() deliberately reports the
// static ceiling, not the tightened bound: the auditor's attempts <= R
// invariant and the tracer's retries-remaining budget are sized against
// the most the loop could ever do, so a mid-request window flip can never
// read as a violation.
#pragma once

#include <string>

#include "src/core/retrial.h"

namespace anyqos::control {

class OverloadGovernor;

/// core::RetrialPolicy view over one governor; every AC-router controller
/// shares the same governor, so the bound adapts system-wide.
class AdaptiveRetrialPolicy final : public core::RetrialPolicy {
 public:
  /// `governor` must outlive the policy.
  explicit AdaptiveRetrialPolicy(const OverloadGovernor& governor);

  [[nodiscard]] bool keep_going(std::size_t attempts_made) const override;
  /// The static ceiling R (never the tightened effective bound).
  [[nodiscard]] std::size_t max_attempts() const override;
  [[nodiscard]] std::string name() const override;

 private:
  const OverloadGovernor* governor_;
};

}  // namespace anyqos::control

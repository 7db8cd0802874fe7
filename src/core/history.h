// Local admission history (paper Section 4.3.2, eqs. (5)-(10)).
//
// Each AC-router keeps, per anycast group, a list H = <h_1..h_K> where h_i
// counts the *consecutive* reservation failures most recently observed for
// member i (reset to 0 by any success). The WD/D+H algorithm shifts weight
// away from members with non-zero h_i using discount parameter alpha.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace anyqos::core {

/// The admission-history list H with the paper's update rule (7).
class AdmissionHistory {
 public:
  /// All-zero history for `k` members (eq. 6).
  explicit AdmissionHistory(std::size_t k);

  /// Applies eq. (7) after member `index` was tried: success resets h_i to 0,
  /// failure increments it.
  void record(std::size_t index, bool success);

  [[nodiscard]] std::size_t size() const { return failures_.size(); }
  /// h_i: consecutive recent failures for member `index`.
  [[nodiscard]] std::size_t consecutive_failures(std::size_t index) const;
  [[nodiscard]] const std::vector<std::size_t>& values() const { return failures_; }

  /// Resets all entries to zero.
  void reset();

 private:
  std::vector<std::size_t> failures_;
};

/// The discount alpha^h of eq. (9) for one alpha in [0,1], with the
/// 0^0 == 1 convention (h == 0 must leave weight intact). Every value equals
/// std::pow(alpha, h). Powers below kTableLength are computed on first use
/// and then read from a table; longer failure streaks call std::pow, so the
/// table's memory stays fixed whatever the run does.
class HistoryDiscount {
 public:
  static constexpr std::size_t kTableLength = 32;

  explicit HistoryDiscount(double alpha);

  [[nodiscard]] double alpha() const { return alpha_; }

  /// alpha^h.
  [[nodiscard]] double operator()(std::size_t h) {
    return h < filled_ ? table_[h] : extend(h);
  }

 private:
  double extend(std::size_t h);

  double alpha_;
  std::size_t filled_ = 1;  // table_[0, filled_) hold alpha^0 .. alpha^(filled_-1)
  std::array<double, kTableLength> table_{1.0};
};

/// Applies the paper's three-step weight update (eqs. (8)-(10)) to `weights`
/// in place, using `history` and the discount alpha^h:
///   1. AW = sum W_i (1 - alpha^{h_i})           — adjustable mass
///   2. W'_i = W_i alpha^{h_i}      when h_i != 0
///      W'_i = W_i + AW / M         when h_i == 0 (M = #members with h_i == 0)
///   3. renormalize
/// alpha = 0 gives history maximal impact, alpha = 1 none.
///
/// Corner cases the paper leaves open, resolved here:
///  - M == 0 (every member failing): step 2's redistribution target is empty,
///    so W'_i = W_i alpha^{h_i} for all i and step 3 renormalizes.
///  - All W'_i == 0 (alpha == 0 and every member failing): keeps the
///    pre-update weights — history clearly carries no usable signal.
void apply_history(std::span<double> weights, const AdmissionHistory& history,
                   HistoryDiscount& discount);

}  // namespace anyqos::core

// Lockstep oracle for destination selection.
//
// ED, WD/D+H and WD/D+B select in buffers they own. This suite drives each
// of them step for step beside the allocating formulation they replaced,
// copied here as the reference: every intermediate vector is a fresh
// std::vector and the arithmetic runs in the same order. Each side draws from
// its own RandomStream at the same seed, so any difference in a weight, even
// in the last bit, shows up as a different index or a memcmp mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/selectors.h"
#include "src/net/topologies.h"

namespace anyqos::core {
namespace {

namespace reference {

std::vector<double> normalize(std::vector<double> raw) {
  double total = 0.0;
  for (const double w : raw) {
    total += w;
  }
  for (double& w : raw) {
    w /= total;
  }
  return raw;
}

std::vector<double> inverse_distance(const std::vector<std::size_t>& distances) {
  std::vector<double> raw;
  for (const std::size_t d : distances) {
    raw.push_back(1.0 / static_cast<double>(std::max<std::size_t>(d, 1)));
  }
  return normalize(std::move(raw));
}

std::vector<double> bandwidth_distance(const std::vector<double>& bandwidths,
                                       const std::vector<std::size_t>& distances) {
  std::vector<double> raw;
  double total = 0.0;
  for (std::size_t i = 0; i < bandwidths.size(); ++i) {
    const double w = bandwidths[i] / static_cast<double>(std::max<std::size_t>(distances[i], 1));
    raw.push_back(w);
    total += w;
  }
  if (total <= 0.0) {
    return inverse_distance(distances);
  }
  return normalize(std::move(raw));
}

std::vector<double> apply_history(const std::vector<double>& weights,
                                  const std::vector<std::size_t>& history, double alpha) {
  const std::size_t k = weights.size();
  const auto discount = [alpha](std::size_t h) {
    return h == 0 ? 1.0 : std::pow(alpha, static_cast<double>(h));
  };
  double adjustable = 0.0;
  std::size_t zero_history_members = 0;
  for (std::size_t i = 0; i < k; ++i) {
    adjustable += weights[i] * (1.0 - discount(history[i]));
    if (history[i] == 0) {
      ++zero_history_members;
    }
  }
  std::vector<double> updated(k, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (history[i] != 0) {
      updated[i] = weights[i] * discount(history[i]);
    } else {
      updated[i] = weights[i] + (zero_history_members > 0
                                     ? adjustable / static_cast<double>(zero_history_members)
                                     : 0.0);
    }
    total += updated[i];
  }
  if (total <= 0.0) {
    return weights;
  }
  return normalize(std::move(updated));
}

std::vector<double> masked(const std::vector<double>& weights, std::span<const bool> excluded) {
  std::vector<double> raw(weights.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!excluded[i]) {
      raw[i] = weights[i];
      total += weights[i];
    }
  }
  if (total <= 0.0) {
    return raw;
  }
  for (double& w : raw) {
    w /= total;
  }
  return raw;
}

std::optional<std::size_t> sample_masked(const std::vector<double>& weights,
                                         std::span<const bool> tried, des::RandomStream& rng) {
  if (std::all_of(tried.begin(), tried.end(), [](bool t) { return t; })) {
    return std::nullopt;
  }
  std::vector<double> m = masked(weights, tried);
  if (std::all_of(m.begin(), m.end(), [](double w) { return w == 0.0; })) {
    std::vector<double> uniform(tried.size(), 0.0);
    for (std::size_t i = 0; i < tried.size(); ++i) {
      uniform[i] = tried[i] ? 0.0 : 1.0;
    }
    m = normalize(std::move(uniform));
  }
  return rng.weighted_index(m);
}

std::vector<std::size_t> distances(net::NodeId source, const net::RouteTable& routes) {
  std::vector<std::size_t> d;
  for (std::size_t i = 0; i < routes.destination_count(); ++i) {
    d.push_back(routes.distance(source, i));
  }
  return d;
}

class Ed final : public DestinationSelector {
 public:
  explicit Ed(std::size_t k) : weights_(k, 1.0 / static_cast<double>(k)) {}
  std::optional<std::size_t> select(std::span<const bool> tried, des::RandomStream& rng) override {
    return sample_masked(weights_, tried, rng);
  }
  void fill_weights(std::vector<double>& out) const override { out = weights_; }
  [[nodiscard]] std::string name() const override { return "ED"; }

 private:
  std::vector<double> weights_;
};

class Wdh final : public DestinationSelector {
 public:
  Wdh(net::NodeId source, const net::RouteTable& routes, double alpha)
      : alpha_(alpha),
        weights_(inverse_distance(distances(source, routes))),
        history_(routes.destination_count(), 0) {}
  std::optional<std::size_t> select(std::span<const bool> tried, des::RandomStream& rng) override {
    weights_ = apply_history(weights_, history_, alpha_);
    return sample_masked(weights_, tried, rng);
  }
  void report(std::size_t index, bool admitted) override {
    history_[index] = admitted ? 0 : history_[index] + 1;
  }
  void fill_weights(std::vector<double>& out) const override { out = weights_; }
  [[nodiscard]] std::string name() const override { return "WD/D+H"; }

 private:
  double alpha_;
  std::vector<double> weights_;
  std::vector<std::size_t> history_;
};

class Wdb final : public DestinationSelector {
 public:
  Wdb(net::NodeId source, const net::RouteTable& routes, signaling::ProbeService& probe,
      bool mask_infeasible, net::Bandwidth flow_bandwidth)
      : source_(source),
        routes_(&routes),
        probe_(&probe),
        mask_infeasible_(mask_infeasible),
        flow_bandwidth_(flow_bandwidth),
        distances_(distances(source, routes)) {}
  std::optional<std::size_t> select(std::span<const bool> tried, des::RandomStream& rng) override {
    return sample_masked(current_weights(), tried, rng);
  }
  void fill_weights(std::vector<double>& out) const override { out = current_weights(); }
  [[nodiscard]] std::string name() const override { return "WD/D+B"; }

 private:
  [[nodiscard]] std::vector<double> current_weights() const {
    std::vector<double> bandwidths;
    for (std::size_t i = 0; i < distances_.size(); ++i) {
      double b = probe_->route_bandwidth(routes_->route(source_, i));
      if (mask_infeasible_ && b < flow_bandwidth_) {
        b = 0.0;
      }
      bandwidths.push_back(b);
    }
    return bandwidth_distance(bandwidths, distances_);
  }

  net::NodeId source_;
  const net::RouteTable* routes_;
  signaling::ProbeService* probe_;
  bool mask_infeasible_;
  net::Bandwidth flow_bandwidth_;
  std::vector<std::size_t> distances_;
};

}  // namespace reference

constexpr std::size_t kSteps = 20'000;
constexpr std::uint64_t kSeeds[] = {1, 20011, 987'654'321};
constexpr net::NodeId kSource = 0;
constexpr net::Bandwidth kFlowBandwidth = 2.0e6;

// Stretches of the run, in steps.
constexpr std::size_t kLongStreakBegin = 5'000;  // member 0 fails every step...
constexpr std::size_t kLongStreakEnd = 5'200;    // ...far past the α^h table
constexpr std::size_t kAllFailBegin = 10'000;    // every member fails every step
constexpr std::size_t kAllFailEnd = 10'060;

// MCI backbone with 10 Mbit/s links, eight members away from the source, so
// a handful of 1-4 Mbit/s reservations can saturate a route.
struct Network {
  net::Topology topo = net::topologies::mci_backbone(10.0e6);
  std::vector<net::NodeId> members{2, 4, 6, 8, 10, 12, 14, 16};
  net::RouteTable routes{topo, members};
  net::BandwidthLedger ledger{topo, 1.0};
  signaling::MessageCounter change_counter;
  signaling::MessageCounter reference_counter;
  signaling::ProbeService change_probe{ledger, change_counter};
  signaling::ProbeService reference_probe{ledger, reference_counter};
};

struct LockstepStats {
  std::size_t longest_streak = 0;     ///< largest h seen on member 0
  std::size_t unchanged_all_fail = 0; ///< all-failing selections that kept W
  std::size_t reservation_changes = 0;
};

// Reserves or releases random member routes between steps, so WD/D+B's
// probed bandwidths move under it.
class LedgerChurn {
 public:
  explicit LedgerChurn(Network& net) : net_(&net) {}

  std::size_t step(des::RandomStream& driver) {
    std::size_t changes = 0;
    if (driver.bernoulli(0.5)) {
      const net::Path& route = net_->routes.route(
          static_cast<net::NodeId>(driver.uniform_index(net_->topo.router_count())),
          driver.uniform_index(net_->members.size()));
      const net::Bandwidth amount = driver.uniform(1.0e6, 4.0e6);
      if (!route.links.empty() && net_->ledger.can_reserve(route, amount) &&
          net_->ledger.reserve(route, amount)) {
        held_.emplace_back(route, amount);
        ++changes;
      }
    }
    if (!held_.empty() && driver.bernoulli(0.45)) {
      const std::size_t i = driver.uniform_index(held_.size());
      net_->ledger.release(held_[i].first, held_[i].second);
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
      ++changes;
    }
    return changes;
  }

 private:
  Network* net_;
  std::vector<std::pair<net::Path, net::Bandwidth>> held_;
};

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Drives `change` and `reference` through kSteps identical steps: random
// tried masks, random report() outcomes and the two stretches above.
// `history` (WD/D+H only) lets the driver confirm the stretches did what they
// are for; `churn` (WD/D+B only) moves reservations between steps.
void run_lockstep(DestinationSelector& change, DestinationSelector& reference,
                  std::uint64_t seed, const AdmissionHistory* history, LedgerChurn* churn,
                  LockstepStats& stats) {
  const std::size_t k = change.weights().size();
  des::RandomStream change_rng(seed);
  des::RandomStream reference_rng(seed);
  des::RandomStream driver(seed ^ 0x5DEECE66DULL);
  std::unique_ptr<bool[]> tried(new bool[k]);
  const std::span<const bool> tried_view(tried.get(), k);
  for (std::size_t step = 0; step < kSteps; ++step) {
    const bool long_streak = step >= kLongStreakBegin && step < kLongStreakEnd;
    const bool all_fail = step >= kAllFailBegin && step < kAllFailEnd;
    const bool every_member_failing =
        history != nullptr && std::all_of(history->values().begin(), history->values().end(),
                                          [](std::size_t h) { return h > 0; });
    const std::vector<double> before =
        every_member_failing ? change.weights() : std::vector<double>{};

    const bool everything_tried = driver.uniform_index(50) == 0;
    for (std::size_t i = 0; i < k; ++i) {
      tried[i] = everything_tried || driver.bernoulli(0.3);
    }
    const std::optional<std::size_t> picked = change.select(tried_view, change_rng);
    const std::optional<std::size_t> expected = reference.select(tried_view, reference_rng);
    ASSERT_EQ(picked, expected) << change.name() << " seed " << seed << " step " << step;

    if (every_member_failing && bit_equal(before, change.weights())) {
      ++stats.unchanged_all_fail;
    }
    if (picked.has_value()) {
      const bool admitted =
          !all_fail && !(long_streak && *picked == 0) && driver.bernoulli(0.6);
      change.report(*picked, admitted);
      reference.report(*picked, admitted);
    }
    if (long_streak) {
      change.report(0, false);
      reference.report(0, false);
    }
    if (all_fail) {
      for (std::size_t i = 0; i < k; ++i) {
        change.report(i, false);
        reference.report(i, false);
      }
    }
    if (history != nullptr) {
      stats.longest_streak = std::max(stats.longest_streak, history->consecutive_failures(0));
    }
    if (churn != nullptr) {
      stats.reservation_changes += churn->step(driver);
    }

    ASSERT_TRUE(bit_equal(change.weights(), reference.weights()))
        << change.name() << " seed " << seed << " step " << step;
  }
}

TEST(SelectionLockstep, EvenDistributionMatchesAllocatingReference) {
  for (const std::uint64_t seed : kSeeds) {
    EvenDistributionSelector change(8);
    reference::Ed reference(8);
    LockstepStats stats;
    run_lockstep(change, reference, seed, nullptr, nullptr, stats);
    ASSERT_FALSE(HasFatalFailure());
  }
}

void check_history_selector(double alpha) {
  for (const std::uint64_t seed : kSeeds) {
    Network net;
    DistanceHistorySelector change(kSource, net.routes, alpha);
    reference::Wdh reference(kSource, net.routes, alpha);
    LockstepStats stats;
    run_lockstep(change, reference, seed, &change.history(), nullptr, stats);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(stats.longest_streak, HistoryDiscount::kTableLength)
        << "the long streak never left the α^h table";
    if (alpha == 0.0) {
      // Every member failing at α = 0 zeroes every W'_i: the update keeps the
      // prior weights instead.
      EXPECT_GT(stats.unchanged_all_fail, kAllFailEnd - kAllFailBegin - 5)
          << "the keep-prior-weights branch was not exercised";
    }
  }
}

TEST(SelectionLockstep, DistanceHistoryAlphaZeroMatchesAllocatingReference) {
  check_history_selector(0.0);
}

TEST(SelectionLockstep, DistanceHistoryAlphaHalfMatchesAllocatingReference) {
  check_history_selector(0.5);
}

TEST(SelectionLockstep, DistanceHistoryAlphaOneMatchesAllocatingReference) {
  check_history_selector(1.0);
}

void check_bandwidth_selector(bool mask_infeasible) {
  for (const std::uint64_t seed : kSeeds) {
    Network net;
    DistanceBandwidthSelector change(kSource, net.routes, net.change_probe, mask_infeasible,
                                     kFlowBandwidth);
    reference::Wdb reference(kSource, net.routes, net.reference_probe, mask_infeasible,
                             kFlowBandwidth);
    LedgerChurn churn(net);
    LockstepStats stats;
    run_lockstep(change, reference, seed, nullptr, &churn, stats);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GT(stats.reservation_changes, kSteps / 2) << "reservations barely moved";
  }
}

TEST(SelectionLockstep, DistanceBandwidthMatchesAllocatingReference) {
  check_bandwidth_selector(false);
}

TEST(SelectionLockstep, DistanceBandwidthMaskedMatchesAllocatingReference) {
  check_bandwidth_selector(true);
}

}  // namespace
}  // namespace anyqos::core

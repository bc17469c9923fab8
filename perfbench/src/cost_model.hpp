#pragma once

#include <cstdint>
#include <vector>

#include "core/autotune.hpp"
#include "runtime/service.hpp"

namespace perfbench {

/// The seeded synthetic workload every benchmark op "runs": two algorithms
/// whose cost the benchmark knows exactly, so tuning quality can be scored.
///
///   plain   untunable, costs 1.6 × the optimum;
///   tiled   two ratio parameters x, y in [0, 63], tuned by Nelder-Mead
///           that never declares convergence;
///           cost = optimum × (1 + 6·(dx² + dy²)) with dx = (x − x0)/63,
///           so its best configuration (x0, y0) beats plain.
///
/// The seed places (x0, y0) in [16, 48]² and drives the measurement noise.
/// The search starts at (x0 − 14, y0 − 14), so the shape of the landscape
/// around the start, and with it the difficulty of the tuning problem, is
/// the same for every seed.
class CostModel {
public:
    static constexpr double kOptimumMs = 1.0;
    static constexpr double kPlainRatio = 1.6;
    static constexpr double kNoiseSigma = 0.03;

    explicit CostModel(std::uint64_t seed);

    [[nodiscard]] std::vector<atk::TunableAlgorithm> algorithms() const;
    /// Tuner factory for a TuningService: ε-greedy (ε = 0.1) phase two over
    /// algorithms(), seeded per session name.
    [[nodiscard]] atk::runtime::TunerFactory factory() const;

    /// True when the trial names a known algorithm and a configuration
    /// inside that algorithm's space.
    [[nodiscard]] bool valid(const atk::Trial& trial) const;
    /// Noise-free cost of a valid trial, in ms.
    [[nodiscard]] double expected(const atk::Trial& trial) const;
    /// One noisy measurement of the trial (multiplicative log-normal noise).
    [[nodiscard]] double sample(const atk::Trial& trial, atk::Rng& rng) const;

    /// Expected cost over optimum of an untuned caller: algorithm and
    /// configuration drawn uniformly at random.
    [[nodiscard]] double untuned_ratio() const noexcept { return untuned_ratio_; }

private:
    std::uint64_t seed_;
    std::int64_t x0_;
    std::int64_t y0_;
    atk::SearchSpace space_;
    double untuned_ratio_ = 0.0;
};

} // namespace perfbench

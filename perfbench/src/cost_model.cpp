#include "cost_model.hpp"

#include <cmath>
#include <functional>
#include <memory>
#include <string>

namespace perfbench {

namespace {
constexpr std::int64_t kSide = 63;
constexpr double kCurvature = 6.0;
constexpr std::int64_t kStartOffset = 14;
}

CostModel::CostModel(std::uint64_t seed) : seed_(seed) {
    atk::Rng rng(seed ^ 0xC057C057ULL);
    x0_ = rng.uniform_int(16, 48);
    y0_ = rng.uniform_int(16, 48);
    space_.add(atk::Parameter::ratio("x", 0, kSide));
    space_.add(atk::Parameter::ratio("y", 0, kSide));

    double tiled_sum = 0.0;
    for (std::int64_t x = 0; x <= kSide; ++x)
        for (std::int64_t y = 0; y <= kSide; ++y)
            tiled_sum += expected({1, atk::Configuration({x, y})});
    const double points = static_cast<double>((kSide + 1) * (kSide + 1));
    untuned_ratio_ = 0.5 * kPlainRatio + 0.5 * tiled_sum / points / kOptimumMs;
}

std::vector<atk::TunableAlgorithm> CostModel::algorithms() const {
    std::vector<atk::TunableAlgorithm> algorithms;
    algorithms.push_back(atk::TunableAlgorithm::untunable("plain"));
    atk::TunableAlgorithm tiled;
    tiled.name = "tiled";
    tiled.space = space_;
    // Every seed starts the search the same distance from its optimum.
    tiled.initial = atk::Configuration({x0_ - kStartOffset, y0_ - kStartOffset});
    // Never declare convergence: a Nelder-Mead searcher that converges on
    // an accepted expansion keeps phase Expand with no reflected point, and
    // its saved state is refused on restore, so evicting it fails the next
    // op (perfbench/README.md, finding 4).
    atk::NelderMeadSearcher::Options search;
    search.cost_tolerance = 0.0;
    tiled.searcher = std::make_unique<atk::NelderMeadSearcher>(search);
    algorithms.push_back(std::move(tiled));
    return algorithms;
}

atk::runtime::TunerFactory CostModel::factory() const {
    return [model = *this](const std::string& session) {
        return std::make_unique<atk::TwoPhaseTuner>(
            std::make_unique<atk::EpsilonGreedy>(0.10), model.algorithms(),
            model.seed_ ^ std::hash<std::string>{}(session));
    };
}

bool CostModel::valid(const atk::Trial& trial) const {
    if (trial.algorithm == 0) return trial.config.empty();
    return trial.algorithm == 1 && space_.contains(trial.config);
}

double CostModel::expected(const atk::Trial& trial) const {
    if (trial.algorithm == 0) return kPlainRatio * kOptimumMs;
    const double dx = static_cast<double>(trial.config[0] - x0_) / kSide;
    const double dy = static_cast<double>(trial.config[1] - y0_) / kSide;
    return kOptimumMs * (1.0 + kCurvature * (dx * dx + dy * dy));
}

double CostModel::sample(const atk::Trial& trial, atk::Rng& rng) const {
    return expected(trial) * std::exp(kNoiseSigma * rng.normal());
}

} // namespace perfbench

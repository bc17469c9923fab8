/// Tests of the benchmark's own pieces.  Exits 0 when every check holds;
/// run.py runs this binary before every measurement.

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_support.hpp"
#include "cost_model.hpp"
#include "counters.hpp"
#include "metric_names.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++g_failures;
    }
}

std::vector<std::string> draws(const perfbench::SessionMix& mix, std::uint64_t seed) {
    atk::Rng rng(seed);
    std::vector<std::string> out;
    for (int i = 0; i < 2000; ++i) out.push_back(mix.next(rng));
    return out;
}

void zipf_names_follow_the_seed() {
    using perfbench::zipf_mix;
    const auto a = draws(zipf_mix("churn", 4096, 1.1, 7), 7);
    const auto b = draws(zipf_mix("churn", 4096, 1.1, 7), 7);
    const auto c = draws(zipf_mix("churn", 4096, 1.1, 8), 8);
    check(a == b, "the same seed gives the same session names");
    check(a != c, "another seed gives other session names");
    std::set<std::string> distinct(a.begin(), a.end());
    check(distinct.size() > 200 && distinct.size() < 2000,
          "Zipf draws repeat hot names and reach into the tail");
    std::size_t top = 0;
    const std::string hottest = zipf_mix("churn", 4096, 1.1, 7).names.front();
    for (const std::string& name : a) top += name == hottest;
    check(top > 2000 / 20, "the rank-1 name is drawn far more often than uniform");
}

void percentiles_state_their_sample_count() {
    perfbench::Reservoir all(1000, 1);
    for (int i = 1; i <= 100; ++i) all.add(i);
    const perfbench::Percentile p50 = perfbench::percentile(all, 0.5);
    check(p50.value == 50.0, "p50 of 1..100 is 50");
    check(p50.samples == 100 && p50.population == 100, "p50 of 1..100 rests on 100 samples");
    check(perfbench::percentile(all, 0.99).value == 99.0, "p99 of 1..100 is 99");

    perfbench::Reservoir sampled(10, 2);
    for (int i = 0; i < 1000; ++i) sampled.add(i);
    const perfbench::Percentile p = perfbench::percentile(sampled, 0.5);
    check(p.samples == 10 && p.population == 1000, "a subsample states kept and seen counts");

    // A stream of 900 ones kept whole merges with 100 nines kept whole.
    perfbench::Reservoir ones(1000, 3), nines(1000, 4);
    for (int i = 0; i < 900; ++i) ones.add(1.0);
    for (int i = 0; i < 100; ++i) nines.add(9.0);
    const perfbench::Percentile merged = perfbench::percentile({&ones, &nines}, 0.95);
    check(merged.value == 9.0 && merged.samples == 1000, "merged percentile weighs streams");
    bool threw = false;
    try {
        (void)perfbench::percentile(perfbench::Reservoir(4, 5), 0.5);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    check(threw, "a percentile of no samples is refused");
}

template <std::size_t N>
void names_and_units_valid(const std::array<perfbench::MetricSpec, N>& specs,
                           std::set<std::string>& seen) {
    for (const perfbench::MetricSpec& spec : specs) {
        const std::string_view name(spec.name);
        check(perfbench::valid_metric_name(name) && name.size() <= 64, spec.name);
        const std::string_view unit(spec.unit);
        bool unit_ok = !unit.empty() && unit.size() <= 16;
        for (const char c : unit)
            unit_ok = unit_ok && (std::isalnum(static_cast<unsigned char>(c)) ||
                                  std::string_view("_/%.-").find(c) != std::string_view::npos);
        check(unit_ok, spec.unit);
        check(seen.insert(spec.name).second, "metric names are unique");
    }
}

void every_metric_name_is_valid() {
    std::set<std::string> seen;
    names_and_units_valid(perfbench::kEndToEnd, seen);
    names_and_units_valid(perfbench::kPerLayer, seen);
    check(seen.count("setup_s") == 1, "setup_s is an end-to-end metric");
    check(!perfbench::valid_metric_name(""), "empty name rejected");
    check(!perfbench::valid_metric_name("op p50"), "space rejected");
    check(!perfbench::valid_metric_name("op/s"), "slash rejected");
}

void json_round_trips() {
    using perfbench::Json;
    const Json original(Json::Object{
        {"correct", Json(true)},
        {"attempted", Json(std::uint64_t{123456789012})},
        {"failed", Json(0)},
        {"metrics",
         Json(Json::Object{
             {"op_p50_us", Json(Json::Object{{"value", Json(27.123456789012345)},
                                             {"unit", Json("us")}})},
             {"tiny", Json(Json::Object{{"value", Json(1e-300)}, {"unit", Json("1/s")}})},
             {"negative", Json(-0.1)},
         })},
        {"text", Json("quote \" backslash \\ newline \n tab \t")},
        {"list", Json(Json::Array{Json(), Json(false), Json(1.5)})},
    });
    const std::string text = perfbench::dump(original);
    const Json parsed = perfbench::parse_json(text);
    check(parsed == original, "dump then parse gives the same value");
    check(perfbench::dump(parsed) == text, "dump is stable across a round trip");
    check(text.find('\n') == std::string::npos, "dump is one line");
    bool threw = false;
    try {
        (void)perfbench::parse_json("{\"a\": 1} trailing");
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    check(threw, "trailing data is refused");
}

void allocation_hook_counts() {
    std::string why;
    check(perfbench::alloc_self_test(why), "the allocation hook sees known allocations");
    const perfbench::AllocCounts before = perfbench::alloc_counts();
    auto* p = new std::string(100, 'x');
    const perfbench::AllocCounts after = perfbench::alloc_counts();
    delete p;
    check(after.calls - before.calls >= 2 && after.bytes - before.bytes >= 100,
          "process-wide counts include a new-expression and its buffer");
}

void cost_model_knows_its_optimum() {
    const perfbench::CostModel model(11);
    auto algorithms = model.algorithms();
    check(algorithms.size() == 2, "two algorithms");
    double best = 1e9;
    for (std::int64_t x = 0; x <= 63; ++x)
        for (std::int64_t y = 0; y <= 63; ++y)
            best = std::min(best, model.expected({1, atk::Configuration({x, y})}));
    check(best == perfbench::CostModel::kOptimumMs, "the tiled optimum is the known optimum");
    check(model.expected({0, {}}) > best, "the untunable algorithm is slower than the optimum");
    check(model.untuned_ratio() > perfbench::CostModel::kPlainRatio,
          "random choice costs more than always picking plain");
    check(!model.valid({1, atk::Configuration({64, 0})}), "out-of-space trial is invalid");
    check(!model.valid({2, {}}), "unknown algorithm is invalid");
}

} // namespace

int main() {
    zipf_names_follow_the_seed();
    percentiles_state_their_sample_count();
    every_metric_name_is_valid();
    json_round_trips();
    allocation_hook_counts();
    cost_model_knows_its_optimum();
    if (g_failures != 0) {
        std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench_tests: all checks passed\n");
    return 0;
}

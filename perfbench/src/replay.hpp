#pragma once

/// The traced run's boundary replay: the workload's op sequence (its
/// session names, its cost model, its service options) driven from one
/// thread through each boundary in turn.  Every stage makes the same op, a
/// recommend plus an acknowledged report, and adds one layer:
///
///   1 core      TwoPhaseTuner::next / report
///   2 runtime   TuningService::begin / report (+ flush, timed apart)
///   3 protocol  stage 2 with every request and reply encoded, fed through a
///               FrameDecoder and decoded, as the server would
///   4 client    TuningClient to a TuningServer on 127.0.0.1
///   5 fleet     FleetClient over the workload's ring (one node unless the
///               workload routes)
///
/// The difference between adjacent stages' median op time is the added
/// layer's self time.

#include <cstddef>
#include <cstdint>

#include "cost_model.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ReplayResult {
    std::size_t ops = 0;  ///< ops each stage made
    /// Median op time of each stage, µs.
    double core_us = 0.0;
    double runtime_us = 0.0;
    double protocol_us = 0.0;
    double client_us = 0.0;
    double fleet_us = 0.0;

    double core_next_ns = 0.0;
    double core_report_ns = 0.0;
    double runtime_begin_ns = 0.0;
    double runtime_report_ns = 0.0;
    double runtime_flush_wait_us = 0.0;
    double encode_ns = 0.0;     ///< all four frames of one op
    double decode_ns = 0.0;
    double bytes_per_op = 0.0;
    double client_recommend_us_p50 = 0.0;
    double client_recommend_us_p99 = 0.0;
    double client_report_us_p50 = 0.0;
    double client_report_us_p99 = 0.0;
    double client_flush_us = 0.0;  ///< flush_reports() of one async report
    double route_ns = 0.0;
    double replicate_ms = 0.0;     ///< one replicate_now() on one node
    double push_bytes_per_round = 0.0;
};

/// Replays `ops` ops of `plan` through the five stages.  A stage that is
/// still running after `stage_seconds` stops early (ops counts the shortest
/// stage).  Throws std::runtime_error when a stage sees an invalid trial or
/// a refused report.
[[nodiscard]] ReplayResult replay(const ReplayPlan& plan, const CostModel& model,
                                  std::uint64_t seed, std::size_t ops,
                                  double stage_seconds);

} // namespace perfbench

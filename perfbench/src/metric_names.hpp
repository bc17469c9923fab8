#pragma once

/// Every metric the benchmark prints, in print order.  BENCHMARK.json at
/// the repository root lists the same names; run.py refuses a result whose
/// names differ from it.

#include <array>

namespace perfbench {

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// Untraced runs (--trace 0).
inline constexpr std::array kEndToEnd = {
    MetricSpec{"ops_per_s", "1/s"},
    MetricSpec{"op_p50_us", "us"},
    MetricSpec{"op_p99_us", "us"},
    MetricSpec{"tuned_cost_ratio", "ratio"},
    MetricSpec{"cpu_us_per_op", "us"},
    MetricSpec{"allocs_per_op", "count"},
    MetricSpec{"peak_rss_mb", "MB"},
    MetricSpec{"setup_s", "s"},
};

/// The traced run (--trace 1).
inline constexpr std::array kPerLayer = {
    MetricSpec{"core.next_ns", "ns"},
    MetricSpec{"core.report_ns", "ns"},
    MetricSpec{"runtime.begin_ns", "ns"},
    MetricSpec{"runtime.report_ns", "ns"},
    MetricSpec{"runtime.flush_wait_us", "us"},
    MetricSpec{"runtime.ingest_wait_ms_p50", "ms"},
    MetricSpec{"runtime.ingest_wait_ms_p99", "ms"},
    MetricSpec{"runtime.stale_share", "share"},
    MetricSpec{"runtime.drop_share", "share"},
    MetricSpec{"runtime.orphan_share", "share"},
    MetricSpec{"runtime.evictions_per_op", "count"},
    MetricSpec{"runtime.rehydrations_per_op", "count"},
    MetricSpec{"runtime.session_snapshot_us", "us"},
    MetricSpec{"runtime.session_snapshot_bytes", "bytes"},
    MetricSpec{"runtime.evicted_held", "count"},
    MetricSpec{"net.protocol.encode_ns", "ns"},
    MetricSpec{"net.protocol.decode_ns", "ns"},
    MetricSpec{"net.protocol.bytes_per_op", "bytes"},
    MetricSpec{"net.client.recommend_us_p50", "us"},
    MetricSpec{"net.client.recommend_us_p99", "us"},
    MetricSpec{"net.client.report_us_p50", "us"},
    MetricSpec{"net.client.report_us_p99", "us"},
    MetricSpec{"net.client.flush_us", "us"},
    MetricSpec{"net.server.self_us", "us"},
    MetricSpec{"net.server.frames_per_op", "count"},
    MetricSpec{"net.client.reconnects", "count"},
    MetricSpec{"net.client.timeouts", "count"},
    MetricSpec{"net.server.errors", "count"},
    MetricSpec{"net.server.dropped_reports", "count"},
    MetricSpec{"fleet.route_ns", "ns"},
    MetricSpec{"fleet.self_us", "us"},
    MetricSpec{"fleet.failovers", "count"},
    MetricSpec{"fleet.replicate_ms", "ms"},
    MetricSpec{"fleet.push_bytes_per_round", "bytes"},
    MetricSpec{"fleet.replica_bytes", "bytes"},
    MetricSpec{"obs.registry_series", "count"},
    MetricSpec{"obs.tracing_overhead_pct", "%"},
    MetricSpec{"proc.user_us_per_op", "us"},
    MetricSpec{"proc.sys_us_per_op", "us"},
    MetricSpec{"proc.alloc_bytes_per_op", "bytes"},
    MetricSpec{"proc.vol_ctx_switches_per_op", "count"},
    MetricSpec{"proc.invol_ctx_switches_per_op", "count"},
    MetricSpec{"failed_op_share", "share"},
    MetricSpec{"report_loss_share", "share"},
    MetricSpec{"untraced.op_p50_us", "us"},
    MetricSpec{"traced.op_p50_us", "us"},
    MetricSpec{"stage.core_us", "us"},
    MetricSpec{"stage.runtime_us", "us"},
    MetricSpec{"stage.protocol_us", "us"},
    MetricSpec{"stage.client_us", "us"},
    MetricSpec{"stage.fleet_us", "us"},
    MetricSpec{"attrib.core_pct", "%"},
    MetricSpec{"attrib.runtime_pct", "%"},
    MetricSpec{"attrib.protocol_pct", "%"},
    MetricSpec{"attrib.fleet_pct", "%"},
    MetricSpec{"attrib.unattributed_pct", "%"},
    MetricSpec{"attrib.unattributed_us", "us"},
};

} // namespace perfbench

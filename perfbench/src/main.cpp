/// perfbench: the repository's end-to-end and per-layer benchmark of the
/// tuning op, a recommend plus a report for one named session.
///
///   perfbench --workload embedded|remote_sync|fleet_churn --seed N
///             --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
///             [--source-digest HEX]
///
/// --trace 0 measures the end-to-end metrics (metric_names.hpp kEndToEnd);
/// --trace 1 runs an untraced and a traced window plus the boundary replay
/// and prints the per-layer metrics (kPerLayer).  Every outcome check must
/// pass or the run exits 1 without a result.  The last stdout line is the
/// result as one JSON object; a fuller record goes to --out-dir.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "counters.hpp"
#include "metric_names.hpp"
#include "replay.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRuns = 5;
constexpr double kSliceSeconds = 0.1;
constexpr std::size_t kReplayOps = 20000;
constexpr std::size_t kSnapshotProbes = 64;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string out_dir = ".bench_build/results";
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            error = "missing value for " + key;
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (key == "--workload") args.workload = value;
            else if (key == "--seed") args.seed = std::stoull(value);
            else if (key == "--seconds") args.seconds = std::stod(value);
            else if (key == "--trace") args.trace = std::stoi(value);
            else if (key == "--out-dir") args.out_dir = value;
            else if (key == "--git-sha") args.git_sha = value;
            else if (key == "--source-digest") args.source_digest = value;
            else {
                error = "unknown option " + key;
                return false;
            }
        } catch (const std::exception&) {
            error = "bad value for " + key + ": " + value;
            return false;
        }
    }
    if (args.workload.empty()) error = "--workload is required";
    else if (!(args.seconds > 0.0)) error = "--seconds must be positive";
    else if (args.trace != 0 && args.trace != 1) error = "--trace must be 0 or 1";
    return error.empty();
}

// ---------------------------------------------------------------------------
// Counters of the program, read through its public APIs.
// ---------------------------------------------------------------------------

/// Service-side counters summed over a workload's services, plus its
/// clients' counters.  Net and fleet counters are read from the registry's
/// CSV export, so reading them never creates an instrument.
struct StackCounters {
    std::uint64_t enqueued = 0, dropped = 0, orphaned = 0, fresh = 0, stale = 0;
    std::uint64_t evicted = 0, rehydrated = 0, evicted_held = 0;
    std::uint64_t net_frames = 0, net_errors = 0, net_dropped_reports = 0;
    std::uint64_t registry_series = 0;
    double replica_bytes = 0.0;
    std::vector<double> ingest_bounds;
    std::vector<std::uint64_t> ingest_counts;
    ClientCounters clients;
    bool ledger_ok = true;  ///< fresh + stale + orphaned == enqueued, per service
};

std::map<std::string, double> registry_values(const atk::obs::MetricsRegistry& registry,
                                              std::uint64_t& rows) {
    std::map<std::string, double> values;
    std::istringstream csv(registry.to_csv().to_string());
    std::string line;
    std::getline(csv, line);  // header
    rows = 0;
    while (std::getline(csv, line)) {
        if (line.empty()) continue;
        ++rows;
        // metric,type,field,value — metric names hold no commas.
        const std::size_t c1 = line.find(',');
        const std::size_t c2 = line.find(',', c1 + 1);
        const std::size_t c3 = line.find(',', c2 + 1);
        if (c3 == std::string::npos || line.compare(c2 + 1, c3 - c2 - 1, "value") != 0)
            continue;
        values[line.substr(0, c1)] = std::stod(line.substr(c3 + 1));
    }
    return values;
}

StackCounters read_counters(Workload& workload) {
    workload.flush_clients();
    StackCounters c;
    for (atk::runtime::TuningService* service : workload.services()) {
        service->flush();
        const atk::runtime::ServiceStats s = service->stats();
        c.enqueued += s.reports_enqueued;
        c.dropped += s.reports_dropped;
        c.orphaned += s.reports_orphaned;
        c.fresh += s.reports_fresh;
        c.stale += s.reports_stale;
        c.evicted += s.sessions_evicted;
        c.rehydrated += s.sessions_rehydrated;
        c.evicted_held += s.evicted_held;
        c.ledger_ok = c.ledger_ok &&
                      s.reports_fresh + s.reports_stale + s.reports_orphaned == s.reports_enqueued;

        std::uint64_t rows = 0;
        const auto values = registry_values(service->metrics(), rows);
        c.registry_series += rows;
        const auto value = [&](const char* name) {
            const auto it = values.find(name);
            return it == values.end() ? 0.0 : it->second;
        };
        c.net_frames += static_cast<std::uint64_t>(value("net_frames_rx") + value("net_frames_tx"));
        c.net_errors +=
            static_cast<std::uint64_t>(value("net_decode_errors") + value("net_protocol_errors"));
        c.net_dropped_reports += static_cast<std::uint64_t>(value("net_dropped_reports"));
        c.replica_bytes += value("fleet_replica_bytes");

        // The service creates this histogram on its first ingest (the warm-up).
        const atk::obs::Histogram& h = service->metrics().histogram("ingest_latency_ms");
        const auto counts = h.bucket_counts();
        if (c.ingest_counts.empty()) {
            c.ingest_bounds = h.bounds();
            c.ingest_counts.assign(counts.size(), 0);
        }
        for (std::size_t b = 0; b < counts.size() && b < c.ingest_counts.size(); ++b)
            c.ingest_counts[b] += counts[b];
    }
    c.clients = workload.client_counters();
    return c;
}

/// q-quantile of a bucketed histogram delta, interpolated linearly inside
/// the bucket that holds it (buckets are upper bounds; the overflow bucket
/// is read as ending at 4× the last bound).
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& before,
                          const std::vector<std::uint64_t>& after, double q) {
    std::vector<double> counts(after.size(), 0.0);
    double total = 0.0;
    for (std::size_t b = 0; b < after.size(); ++b) {
        counts[b] = static_cast<double>(after[b] - (b < before.size() ? before[b] : 0));
        total += counts[b];
    }
    if (total <= 0.0) return 0.0;
    const double target = q * total;
    double cumulative = 0.0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] > 0.0 && cumulative + counts[b] >= target) {
            const double lower = b == 0 ? 0.0 : bounds[b - 1];
            const double upper = b < bounds.size() ? bounds[b] : 4.0 * bounds.back();
            return lower + (upper - lower) * (target - cumulative) / counts[b];
        }
        cumulative += counts[b];
    }
    return bounds.back();
}

// ---------------------------------------------------------------------------
// Windows and their outcome checks.
// ---------------------------------------------------------------------------

struct WindowStats {
    std::uint64_t ops = 0, failed = 0, invalid = 0, sent = 0, refused = 0;
    double ratio_sum = 0.0;
    double wall_s = 0.0;
    Percentile p50, p99;
    std::string first_error;
};

/// Totals over a window's clients; percentiles over all their samples.
WindowStats summarize(const Window& window) {
    WindowStats s;
    std::vector<const Reservoir*> latencies;
    for (const Tally& t : window.tallies) {
        s.ops += t.ops;
        s.failed += t.failed;
        s.invalid += t.invalid_trials;
        s.sent += t.reports_sent;
        s.refused += t.reports_refused;
        s.ratio_sum += t.cost_ratio_sum;
        if (s.first_error.empty()) s.first_error = t.first_error;
        latencies.push_back(&t.latency_us);
    }
    s.wall_s = window.wall_s;
    if (s.ops > 0) {
        s.p50 = percentile(latencies, 0.50);
        s.p99 = percentile(latencies, 0.99);
    }
    return s;
}

/// Adds a slice's totals and sample counts to `total`; percentile values
/// are left to the caller.
void add_slice(WindowStats& total, const WindowStats& slice) {
    total.ops += slice.ops;
    total.failed += slice.failed;
    total.invalid += slice.invalid;
    total.sent += slice.sent;
    total.refused += slice.refused;
    total.ratio_sum += slice.ratio_sum;
    total.wall_s += slice.wall_s;
    if (total.first_error.empty()) total.first_error = slice.first_error;
    total.p50.samples += slice.p50.samples;
    total.p50.population += slice.p50.population;
    total.p99.samples += slice.p99.samples;
    total.p99.population += slice.p99.population;
}

/// Appends one line per failed outcome check of a window that ran between
/// two counter readings.
void check_window(const char* label, const WindowStats& w, const StackCounters& before,
                  const StackCounters& after, const CostModel& model,
                  std::vector<std::string>& failures) {
    const auto fail = [&](const std::string& what) {
        failures.push_back(std::string(label) + ": " + what);
    };
    if (w.ops == 0) fail("no op completed");
    if (w.failed != 0)
        fail(std::to_string(w.failed) + " op(s) failed, first: " + w.first_error);
    if (w.invalid != 0)
        fail(std::to_string(w.invalid) + " recommendation(s) outside their algorithm's space");
    if (w.refused != 0) fail(std::to_string(w.refused) + " report(s) not accepted");
    if (!after.ledger_ok) fail("after flush, fresh + stale + orphaned != enqueued");
    const std::uint64_t ingested = (after.fresh + after.stale) - (before.fresh + before.stale);
    if (ingested != w.sent)
        fail(std::to_string(w.sent) + " report(s) sent but " + std::to_string(ingested) +
             " ingested");
    if (after.dropped != before.dropped) fail("service dropped reports");
    if (after.orphaned != before.orphaned) fail("service orphaned reports");
    if (after.net_dropped_reports != before.net_dropped_reports)
        fail("server dropped report acks");
    if (after.clients.reports_lost != before.clients.reports_lost)
        fail("client lost async reports");
    if (after.clients.failovers != before.clients.failovers)
        fail("fleet failed over in steady state");
    if (w.ops != 0) {
        const double tuned = w.ratio_sum / static_cast<double>(w.ops);
        if (!(tuned < model.untuned_ratio()))
            fail("tuned_cost_ratio " + std::to_string(tuned) +
                 " does not beat the untuned ratio " + std::to_string(model.untuned_ratio()));
    }
}

double per_op(double total, std::uint64_t ops) {
    return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

double median_of(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One line: the lowest, the median and the highest of a per-slice value.
void print_spread(const char* what, const std::vector<double>& values) {
    const auto [low, high] = std::minmax_element(values.begin(), values.end());
    std::printf("%zu slices, %s: min %.3f, median %.3f, max %.3f\n", values.size(), what, *low,
                median_of(values), *high);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

using MetricValues = std::map<std::string, double>;

/// Prints every failed check to stderr; returns the failing exit code.
int report_failures(const std::vector<std::string>& failures) {
    for (const std::string& f : failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    return 1;
}

template <std::size_t N>
Json::Object metric_object(const std::array<MetricSpec, N>& specs, const MetricValues& values,
                           std::vector<std::string>& failures) {
    Json::Object out;
    for (const MetricSpec& spec : specs) {
        const auto it = values.find(spec.name);
        if (it == values.end() || !std::isfinite(it->second)) {
            failures.push_back(std::string("metric ") + spec.name + " missing or not finite");
            continue;
        }
        out.emplace_back(spec.name, Json(Json::Object{{"value", Json(it->second)},
                                                      {"unit", Json(spec.unit)}}));
    }
    if (values.size() != specs.size())
        failures.push_back("computed " + std::to_string(values.size()) + " metrics, expected " +
                           std::to_string(specs.size()));
    return out;
}

Json provenance(const Args& args) {
    return Json(Json::Object{
        {"workload", Json(args.workload)},
        {"seed", Json(static_cast<std::uint64_t>(args.seed))},
        {"seconds", Json(args.seconds)},
        {"trace", Json(args.trace)},
        {"git_sha", Json(args.git_sha)},
        {"source_digest", Json(args.source_digest)},
        {"nproc", Json(static_cast<std::uint64_t>(std::thread::hardware_concurrency()))},
        {"compiler", Json(std::string(__VERSION__))},
        {"build_type", Json(PERFBENCH_BUILD_TYPE)},
    });
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

template <std::size_t N>
void print_table(const std::array<MetricSpec, N>& specs, const MetricValues& values) {
    for (const MetricSpec& spec : specs) {
        const auto it = values.find(spec.name);
        if (it != values.end())
            std::printf("  %-34s %16.6g %s\n", spec.name, it->second, spec.unit);
    }
}

/// Prints the result's last line and the fuller record; returns the exit code.
template <std::size_t N>
int finish(const Args& args, const std::array<MetricSpec, N>& specs, const MetricValues& values,
           std::uint64_t attempted, std::uint64_t failed, std::vector<std::string> failures,
           Json::Object extra) {
    Json::Object metrics = metric_object(specs, values, failures);
    if (!failures.empty()) return report_failures(failures);
    print_table(specs, values);
    Json::Object record{{"provenance", provenance(args)}, {"metrics", Json(metrics)}};
    for (auto& entry : extra) record.push_back(std::move(entry));
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" + std::to_string(args.trace);
    write_file(stem + ".json", dump(Json(record)) + "\n");
    std::printf("record: %s.json\n", stem.c_str());

    const Json line(Json::Object{{"correct", Json(true)},
                                 {"attempted", Json(attempted)},
                                 {"failed", Json(failed)},
                                 {"metrics", Json(std::move(metrics))}});
    std::printf("%s\n", dump(line).c_str());
    std::fflush(stdout);
    return 0;
}

Json percentile_json(const Percentile& p) {
    return Json(Json::Object{{"value", Json(p.value)},
                             {"samples", Json(p.samples)},
                             {"population", Json(p.population)}});
}

// ---------------------------------------------------------------------------
// The two kinds of run.
// ---------------------------------------------------------------------------

int end_to_end(const Args& args) {
    std::vector<double> setups;
    std::unique_ptr<Workload> workload;
    for (int r = 0; r < kSetupRuns; ++r) {
        workload.reset();  // tear the previous stack down outside the timing
        workload = make_workload(args.workload, args.seed);
        const std::uint64_t t0 = now_ns();
        workload->setup();
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }

    // The window is measured as consecutive short slices; each time metric
    // is the median over the slices, so stalls and bursts of host load that
    // hit fewer than half of the slices do not move it.  A slice's samples
    // are dropped once it is summarized, so the benchmark's own memory does
    // not grow with the window.
    const StackCounters before = read_counters(*workload);
    const int count = std::max(1, static_cast<int>(std::lround(args.seconds / kSliceSeconds)));
    WindowStats w;
    std::vector<double> rate, p50, p99, cpu, allocs;
    for (int slice = 0; slice < count; ++slice) {
        const ProcSample proc0 = proc_sample();
        const AllocCounts alloc0 = alloc_counts();
        const Window window = workload->run(args.seconds / count, nullptr);
        const ProcSample proc1 = proc_sample();
        const AllocCounts alloc1 = alloc_counts();
        const WindowStats s = summarize(window);
        add_slice(w, s);
        if (s.ops == 0) continue;
        rate.push_back(static_cast<double>(s.ops) / s.wall_s);
        p50.push_back(s.p50.value);
        p99.push_back(s.p99.value);
        cpu.push_back(
            per_op((proc1.user_us - proc0.user_us) + (proc1.sys_us - proc0.sys_us), s.ops));
        allocs.push_back(per_op(static_cast<double>(alloc1.calls - alloc0.calls), s.ops));
    }
    const StackCounters after = read_counters(*workload);
    std::vector<std::string> failures;
    check_window("window", w, before, after, workload->model(), failures);
    if (rate.empty()) return report_failures(failures);
    print_spread("ops/s", rate);
    print_spread("op p50 us", p50);
    print_spread("op p99 us", p99);
    w.p50.value = median_of(p50);
    w.p99.value = median_of(p99);

    MetricValues m;
    m["ops_per_s"] = median_of(rate);
    m["op_p50_us"] = w.p50.value;
    m["op_p99_us"] = w.p99.value;
    m["tuned_cost_ratio"] = per_op(w.ratio_sum, w.ops);
    m["cpu_us_per_op"] = median_of(cpu);
    m["allocs_per_op"] = median_of(allocs);
    m["peak_rss_mb"] = proc_sample().max_rss_mb;
    m["setup_s"] = median_of(setups);

    std::printf("%s: %llu ops in %.3f s; latency percentiles over %llu of %llu samples, "
                "untuned ratio %.4f\n",
                args.workload.c_str(), static_cast<unsigned long long>(w.ops), w.wall_s,
                static_cast<unsigned long long>(w.p50.samples),
                static_cast<unsigned long long>(w.p50.population),
                workload->model().untuned_ratio());
    Json::Array setup_runs;
    for (const double s : setups) setup_runs.emplace_back(s);
    return finish(args, kEndToEnd, m, w.ops, w.failed, std::move(failures),
                  {{"latency_us", Json(Json::Object{{"p50", percentile_json(w.p50)},
                                                    {"p99", percentile_json(w.p99)}})},
                   {"setup_s_runs", Json(std::move(setup_runs))},
                   {"untuned_ratio", Json(workload->model().untuned_ratio())}});
}

int traced(const Args& args) {
    std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
    workload->setup();
    const ReplayPlan plan = workload->replay_plan();
    const double half = args.seconds / 2.0;

    // Untraced window: the reference for the tracing overhead and the
    // source of the counter ratios.
    const StackCounters c0 = read_counters(*workload);
    const ProcSample proc0 = proc_sample();
    const AllocCounts alloc0 = alloc_counts();
    const WindowStats u = summarize(workload->run(half, nullptr));
    const ProcSample proc1 = proc_sample();
    const AllocCounts alloc1 = alloc_counts();
    const StackCounters c1 = read_counters(*workload);

    // Traced window: spans around every call the clients make.
    std::vector<SpanLog> logs;
    for (std::size_t t = 0; t < workload->client_threads(); ++t)
        logs.emplace_back(static_cast<std::uint32_t>(t));
    const WindowStats t = summarize(workload->run(half, &logs));
    const StackCounters c2 = read_counters(*workload);

    std::vector<std::string> failures;
    check_window("untraced window", u, c0, c1, workload->model(), failures);
    check_window("traced window", t, c1, c2, workload->model(), failures);

    // Single-session snapshots, the unit of eviction and replication.
    Reservoir snapshot_us(kSnapshotProbes, args.seed);
    double snapshot_bytes = 0.0;
    {
        atk::Rng rng(args.seed ^ 0x5EA7ULL);
        for (std::size_t i = 0; i < kSnapshotProbes; ++i) {
            const std::string& name = plan.mix.next(rng);
            for (atk::runtime::TuningService* service : workload->services()) {
                const std::uint64_t t0 = now_ns();
                const std::optional<std::string> blob = service->session_snapshot(name);
                if (!blob) continue;
                snapshot_us.add(static_cast<double>(now_ns() - t0) / 1e3);
                snapshot_bytes += static_cast<double>(blob->size());
                break;
            }
        }
    }

    ReplayResult r;
    try {
        r = replay(plan, workload->model(), args.seed, kReplayOps, args.seconds);
    } catch (const std::exception& e) {
        failures.push_back(std::string("replay: ") + e.what());
    }
    if (snapshot_us.population() == 0) failures.push_back("no session snapshot found");
    if (!failures.empty()) return report_failures(failures);

    const double ops_u = static_cast<double>(u.ops);
    const double traced_us = t.p50.value;
    const double untraced_us = u.p50.value;

    // Self time of each layer on this workload's path; what the replay does
    // not attribute is the remainder of the traced op.
    const double core = r.core_us;
    const double runtime = r.runtime_us - r.core_us;
    const double protocol = plan.net_path ? r.protocol_us - r.runtime_us : 0.0;
    const double fleet = plan.fleet_path ? r.fleet_us - r.client_us : 0.0;
    const double unattributed = traced_us - (core + runtime + protocol + fleet);

    MetricValues m;
    m["core.next_ns"] = r.core_next_ns;
    m["core.report_ns"] = r.core_report_ns;
    m["runtime.begin_ns"] = r.runtime_begin_ns;
    m["runtime.report_ns"] = r.runtime_report_ns;
    m["runtime.flush_wait_us"] = r.runtime_flush_wait_us;
    m["runtime.ingest_wait_ms_p50"] =
        histogram_quantile(c1.ingest_bounds, c0.ingest_counts, c1.ingest_counts, 0.50);
    m["runtime.ingest_wait_ms_p99"] =
        histogram_quantile(c1.ingest_bounds, c0.ingest_counts, c1.ingest_counts, 0.99);
    const double fresh = static_cast<double>(c1.fresh - c0.fresh);
    const double stale = static_cast<double>(c1.stale - c0.stale);
    const double enqueued = static_cast<double>(c1.enqueued - c0.enqueued);
    m["runtime.stale_share"] = fresh + stale > 0.0 ? stale / (fresh + stale) : 0.0;
    const double dropped = static_cast<double>(c1.dropped - c0.dropped);
    m["runtime.drop_share"] = dropped / std::max(1.0, enqueued + dropped);
    m["runtime.orphan_share"] =
        static_cast<double>(c1.orphaned - c0.orphaned) / std::max(1.0, enqueued);
    m["runtime.evictions_per_op"] = per_op(static_cast<double>(c1.evicted - c0.evicted), u.ops);
    m["runtime.rehydrations_per_op"] =
        per_op(static_cast<double>(c1.rehydrated - c0.rehydrated), u.ops);
    m["runtime.session_snapshot_us"] = percentile(snapshot_us, 0.5).value;
    m["runtime.session_snapshot_bytes"] =
        snapshot_bytes / static_cast<double>(snapshot_us.population());
    m["runtime.evicted_held"] = static_cast<double>(c2.evicted_held);
    m["net.protocol.encode_ns"] = r.encode_ns;
    m["net.protocol.decode_ns"] = r.decode_ns;
    m["net.protocol.bytes_per_op"] = r.bytes_per_op;
    if (plan.net_path) {
        const char* recommend = plan.fleet_path ? "fleet.recommend" : "client.recommend";
        const char* report = plan.fleet_path ? "fleet.report_async" : "client.report";
        m["net.client.recommend_us_p50"] = span_percentile(logs, recommend, 0.50).value / 1e3;
        m["net.client.recommend_us_p99"] = span_percentile(logs, recommend, 0.99).value / 1e3;
        m["net.client.report_us_p50"] = span_percentile(logs, report, 0.50).value / 1e3;
        m["net.client.report_us_p99"] = span_percentile(logs, report, 0.99).value / 1e3;
        m["net.server.self_us"] = unattributed;
    } else {
        m["net.client.recommend_us_p50"] = r.client_recommend_us_p50;
        m["net.client.recommend_us_p99"] = r.client_recommend_us_p99;
        m["net.client.report_us_p50"] = r.client_report_us_p50;
        m["net.client.report_us_p99"] = r.client_report_us_p99;
        m["net.server.self_us"] = r.client_us - r.protocol_us;
    }
    m["net.client.flush_us"] = r.client_flush_us;
    m["net.server.frames_per_op"] =
        per_op(static_cast<double>(c1.net_frames - c0.net_frames), u.ops);
    m["net.client.reconnects"] = static_cast<double>(c2.clients.reconnects - c0.clients.reconnects);
    m["net.client.timeouts"] = static_cast<double>(c2.clients.timeouts - c0.clients.timeouts);
    m["net.server.errors"] = static_cast<double>(c2.net_errors - c0.net_errors);
    m["net.server.dropped_reports"] =
        static_cast<double>(c2.net_dropped_reports - c0.net_dropped_reports);
    m["fleet.route_ns"] = r.route_ns;
    m["fleet.self_us"] = r.fleet_us - r.client_us;
    m["fleet.failovers"] = static_cast<double>(c2.clients.failovers - c0.clients.failovers);
    m["fleet.replicate_ms"] = r.replicate_ms;
    m["fleet.push_bytes_per_round"] = r.push_bytes_per_round;
    m["fleet.replica_bytes"] = c2.replica_bytes;
    m["obs.registry_series"] = static_cast<double>(c2.registry_series);
    m["obs.tracing_overhead_pct"] = (traced_us - untraced_us) / untraced_us * 100.0;
    m["proc.user_us_per_op"] = per_op(proc1.user_us - proc0.user_us, u.ops);
    m["proc.sys_us_per_op"] = per_op(proc1.sys_us - proc0.sys_us, u.ops);
    m["proc.alloc_bytes_per_op"] = per_op(static_cast<double>(alloc1.bytes - alloc0.bytes), u.ops);
    m["proc.vol_ctx_switches_per_op"] =
        per_op(static_cast<double>(proc1.vol_ctx_switches - proc0.vol_ctx_switches), u.ops);
    m["proc.invol_ctx_switches_per_op"] =
        per_op(static_cast<double>(proc1.invol_ctx_switches - proc0.invol_ctx_switches), u.ops);
    const double attempted = ops_u + static_cast<double>(t.ops);
    m["failed_op_share"] = static_cast<double>(u.failed + t.failed) / attempted;
    const double sent = static_cast<double>(u.sent + t.sent);
    const double ingested = static_cast<double>((c2.fresh + c2.stale) - (c0.fresh + c0.stale));
    m["report_loss_share"] = sent > 0.0 ? (sent - ingested) / sent : 0.0;
    m["untraced.op_p50_us"] = untraced_us;
    m["traced.op_p50_us"] = traced_us;
    m["stage.core_us"] = r.core_us;
    m["stage.runtime_us"] = r.runtime_us;
    m["stage.protocol_us"] = r.protocol_us;
    m["stage.client_us"] = r.client_us;
    m["stage.fleet_us"] = r.fleet_us;
    m["attrib.core_pct"] = core / traced_us * 100.0;
    m["attrib.runtime_pct"] = runtime / traced_us * 100.0;
    m["attrib.protocol_pct"] = protocol / traced_us * 100.0;
    m["attrib.fleet_pct"] = fleet / traced_us * 100.0;
    m["attrib.unattributed_pct"] = unattributed / traced_us * 100.0;
    m["attrib.unattributed_us"] = unattributed;

    std::printf("%s traced run: untraced op p50 %.3f us (%llu samples), traced op p50 %.3f us "
                "(%llu samples), tracing overhead %.2f %%\n",
                args.workload.c_str(), untraced_us,
                static_cast<unsigned long long>(u.p50.population), traced_us,
                static_cast<unsigned long long>(t.p50.population),
                m["obs.tracing_overhead_pct"]);
    std::printf("self time of the traced op's p50 by layer (replay of %zu ops per stage):\n",
                r.ops);
    const auto row = [&](const char* layer, double us) {
        std::printf("  %-28s %10.3f us %7.2f %%\n", layer, us, us / traced_us * 100.0);
    };
    row("core", core);
    row("runtime", runtime);
    if (plan.net_path) row("net.protocol", protocol);
    if (plan.fleet_path) row("fleet", fleet);
    row(plan.net_path ? "net.server (unattributed)" : "unattributed", unattributed);

    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string trace_path = args.out_dir + "/" + args.workload + "-seed" +
                                   std::to_string(args.seed) + ".trace.json";
    write_file(trace_path, chrome_trace(logs));
    std::printf("spans: %s\n", trace_path.c_str());

    return finish(args, kPerLayer, m, u.ops + t.ops, u.failed + t.failed, {},
                  {{"untraced_latency_us", Json(Json::Object{{"p50", percentile_json(u.p50)},
                                                             {"p99", percentile_json(u.p99)}})},
                   {"traced_latency_us", Json(Json::Object{{"p50", percentile_json(t.p50)},
                                                           {"p99", percentile_json(t.p99)}})}});
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    std::string error;
    if (!parse_args(argc, argv, args, error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr, "perfbench: refusing to measure a '%s' build; build Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure a build with assertions enabled\n");
    return 3;
#endif
    if (!alloc_self_test(error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
    }
    if (make_workload(args.workload, args.seed) == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d git=%s source=%s nproc=%u "
                "compiler=%s build=%s\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace, args.git_sha.c_str(), args.source_digest.c_str(),
                std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE);
    try {
        return args.trace == 0 ? end_to_end(args) : traced(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

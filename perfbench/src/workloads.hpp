#pragma once

/// The three closed-loop workloads.  Each builds its stack from the
/// program's public APIs, warms it up, and then drives it from client
/// threads that each wait for one op to finish before starting the next.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "cost_model.hpp"
#include "fleet/fleet.hpp"
#include "net/net.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

/// What one client thread saw during a window.
struct Tally {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;          ///< ops that threw
    std::uint64_t invalid_trials = 0;  ///< recommendations outside their space
    std::uint64_t reports_sent = 0;
    std::uint64_t reports_refused = 0; ///< report() false / acked count short
    double cost_ratio_sum = 0.0;       ///< Σ expected cost / optimum
    Reservoir latency_us;
    std::string first_error;

    /// Scores the recommended trial against the known optimum and returns
    /// one noisy measurement of it; an invalid trial is counted instead.
    double measure(const CostModel& model, const atk::Trial& trial, atk::Rng& rng);
};

/// One window of closed-loop clients: a tally per client thread and the
/// wall time from the start signal to the last client's exit.
struct Window {
    std::vector<Tally> tallies;
    double wall_s = 0.0;
};

/// Client-side counters a workload's clients keep.
struct ClientCounters {
    std::uint64_t reconnects = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t reports_lost = 0;
    std::uint64_t failovers = 0;
};

/// Ops between replication rounds, in fleet_churn and in replay stage 5.
inline constexpr std::uint64_t kReplicateEvery = 1000;

/// How the traced run replays a workload one boundary at a time.
struct ReplayPlan {
    SessionMix mix;                        ///< the workload's session names
    atk::runtime::ServiceOptions service;  ///< as the workload configures it
    std::size_t server_workers = 2;
    std::size_t ring_nodes = 1;            ///< nodes of the stage-5 fleet
    bool net_path = false;                 ///< the workload's ops cross net
    bool fleet_path = false;               ///< ... and fleet routing
};

/// One member of an in-process loopback fleet: replica store, hydrating
/// service, fleet node and server, declared in construction order (so the
/// server stops first and the store goes last).
struct FleetMember {
    atk::fleet::ReplicaStore store;
    atk::runtime::TuningService service;
    atk::fleet::FleetNode node;
    std::unique_ptr<atk::net::TuningServer> server;

    FleetMember(const std::string& name, std::vector<atk::fleet::PeerSpec> peers,
                const CostModel& model, atk::runtime::ServiceOptions options,
                std::size_t workers);
};

/// `nodes` fleet members on 127.0.0.1 ephemeral ports, every node peered
/// with every other.
struct LoopbackFleet {
    std::vector<std::string> names;
    std::vector<std::unique_ptr<FleetMember>> members;

    LoopbackFleet(std::size_t nodes, const CostModel& model,
                  const atk::runtime::ServiceOptions& options, std::size_t workers);

    [[nodiscard]] atk::fleet::FleetClientOptions client_options() const;
};

/// Client options shared by every net client the benchmark opens.
[[nodiscard]] atk::net::ClientOptions bench_client_options(std::uint16_t port,
                                                           const std::string& name);

class Workload {
public:
    virtual ~Workload() = default;

    /// Builds the stack and runs the fixed warm-up, which ends flushed.
    virtual void setup() = 0;
    /// Runs the closed-loop clients for `seconds`.  With `logs` (one per
    /// client thread) every call into the program is wrapped in a span.
    virtual Window run(double seconds, std::vector<SpanLog>* logs) = 0;
    /// Ships anything the clients still buffer (async reports).
    virtual void flush_clients() {}
    [[nodiscard]] virtual std::size_t client_threads() const = 0;
    [[nodiscard]] virtual std::vector<atk::runtime::TuningService*> services() = 0;
    [[nodiscard]] virtual ClientCounters client_counters() const { return {}; }
    [[nodiscard]] virtual ReplayPlan replay_plan() const = 0;

    [[nodiscard]] const CostModel& model() const noexcept { return model_; }

protected:
    Workload(std::uint64_t seed) : seed_(seed), model_(seed) {}
    std::uint64_t seed_;
    CostModel model_;
};

/// "embedded", "remote_sync" or "fleet_churn"; nullptr for other names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

} // namespace perfbench

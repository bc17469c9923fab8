#include "workloads.hpp"

#include <latch>
#include <limits>
#include <thread>

namespace perfbench {

using atk::runtime::ServiceOptions;
using atk::runtime::Ticket;
using atk::runtime::TuningService;

namespace {

constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();

std::uint64_t stream_seed(std::uint64_t seed, std::size_t thread, std::uint64_t phase) {
    return seed * 0x9E3779B97F4A7C15ULL + thread * 0x632BE59BD9B4E019ULL + phase;
}

/// Runs `threads` closed-loop clients until `seconds` have passed or each
/// made `max_ops` ops.  `op(thread, tally, log, rng)` makes one timed op;
/// `between(thread, log)` runs after it, outside the op's latency.
template <typename Op, typename Between>
Window run_clients(std::size_t threads, double seconds, std::uint64_t max_ops,
                   std::vector<SpanLog>* logs, std::uint64_t seed, Op op,
                   Between between) {
    Window window;
    window.tallies.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        window.tallies.emplace_back();
        window.tallies.back().latency_us = Reservoir(65536, seed + t);
    }
    std::latch go(1);
    std::uint64_t start_ns = 0;
    const auto span_ns = static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            Tally& tally = window.tallies[t];
            SpanLog* log = logs != nullptr ? &(*logs)[t] : nullptr;
            atk::Rng rng(stream_seed(seed, t, 0));
            go.wait();
            const std::uint64_t deadline = start_ns + span_ns;
            while (tally.ops < max_ops) {
                const std::uint64_t t0 = now_ns();
                if (t0 >= deadline) break;
                if (log != nullptr) log->next_op();
                try {
                    SpanScope span(log, "op");
                    op(t, tally, log, rng);
                } catch (const std::exception& e) {
                    if (tally.failed++ == 0) tally.first_error = e.what();
                }
                tally.latency_us.add(static_cast<double>(now_ns() - t0) / 1e3);
                ++tally.ops;
                try {
                    between(t, log);
                } catch (const std::exception& e) {
                    if (tally.failed++ == 0) tally.first_error = e.what();
                }
            }
        });
    }
    start_ns = now_ns();
    go.count_down();
    for (std::thread& client : clients) client.join();
    window.wall_s = static_cast<double>(now_ns() - start_ns) / 1e9;
    return window;
}

constexpr auto kNothingBetween = [](std::size_t, SpanLog*) {};

SessionMix uniform_of(const std::vector<SessionMix>& parts) {
    SessionMix all;
    for (const SessionMix& part : parts)
        all.names.insert(all.names.end(), part.names.begin(), part.names.end());
    for (std::size_t i = 0; i < all.names.size(); ++i)
        all.cdf.push_back(static_cast<double>(i + 1) / static_cast<double>(all.names.size()));
    return all;
}

// ---------------------------------------------------------------------------

/// The paper's deployment: application threads call an in-process
/// TuningService directly.  Only core and runtime do work.
class Embedded final : public Workload {
public:
    static constexpr std::size_t kThreads = 2;
    static constexpr std::uint64_t kWarmupOps = 50000;  // per thread

    explicit Embedded(std::uint64_t seed)
        : Workload(seed), mix_(uniform_mix("embedded", 16)) {}

    void setup() override {
        service_ = std::make_unique<TuningService>(model_.factory(), options());
        (void)drive(1e9, kWarmupOps, nullptr);
        service_->flush();
    }

    Window run(double seconds, std::vector<SpanLog>* logs) override {
        return drive(seconds, kUnlimited, logs);
    }

    std::size_t client_threads() const override { return kThreads; }
    std::vector<TuningService*> services() override { return {service_.get()}; }

    ReplayPlan replay_plan() const override {
        ReplayPlan plan;
        plan.mix = mix_;
        plan.service = options();
        return plan;
    }

private:
    static ServiceOptions options() {
        ServiceOptions options;
        options.block_when_full = true;
        return options;
    }

    Window drive(double seconds, std::uint64_t max_ops, std::vector<SpanLog>* logs) {
        return run_clients(
            kThreads, seconds, max_ops, logs, stream_seed(seed_, 0, ++phase_),
            [this](std::size_t, Tally& tally, SpanLog* log, atk::Rng& rng) {
                const std::string& session = mix_.next(rng);
                Ticket ticket;
                {
                    SpanScope span(log, "service.begin");
                    ticket = service_->begin(session);
                }
                const double cost = tally.measure(model_, ticket.trial, rng);
                bool accepted = false;
                {
                    SpanScope span(log, "service.report");
                    accepted = service_->report(session, ticket, cost);
                }
                ++tally.reports_sent;
                if (!accepted) ++tally.reports_refused;
            },
            kNothingBetween);
    }

    SessionMix mix_;
    std::uint64_t phase_ = 0;
    std::unique_ptr<TuningService> service_;
};

// ---------------------------------------------------------------------------

/// Remote workers: one TuningClient per thread to one TuningServer, a
/// blocking recommend plus an acknowledged report per decision.
class RemoteSync final : public Workload {
public:
    static constexpr std::size_t kThreads = 2;
    static constexpr std::uint64_t kWarmupOps = 4000;  // per thread

    explicit RemoteSync(std::uint64_t seed) : Workload(seed) {
        for (std::size_t t = 0; t < kThreads; ++t)
            mixes_.push_back(uniform_mix("remote/t" + std::to_string(t), 4));
    }

    void setup() override {
        service_ = std::make_unique<TuningService>(model_.factory(), options());
        atk::net::ServerOptions server_options;
        server_options.worker_threads = kWorkers;
        server_ = std::make_unique<atk::net::TuningServer>(*service_, server_options);
        server_->start();
        for (std::size_t t = 0; t < kThreads; ++t)
            clients_.push_back(std::make_unique<atk::net::TuningClient>(
                bench_client_options(server_->port(), "remote-" + std::to_string(t))));
        (void)drive(1e9, kWarmupOps, nullptr);
        service_->flush();
    }

    Window run(double seconds, std::vector<SpanLog>* logs) override {
        return drive(seconds, kUnlimited, logs);
    }

    std::size_t client_threads() const override { return kThreads; }
    std::vector<TuningService*> services() override { return {service_.get()}; }

    ClientCounters client_counters() const override {
        ClientCounters counters;
        for (const auto& client : clients_) {
            counters.reconnects += client->reconnects();
            counters.timeouts += client->timeouts();
            counters.reports_lost += client->reports_lost();
        }
        return counters;
    }

    ReplayPlan replay_plan() const override {
        ReplayPlan plan;
        plan.mix = uniform_of(mixes_);
        plan.service = options();
        plan.server_workers = kWorkers;
        plan.net_path = true;
        return plan;
    }

private:
    static constexpr std::size_t kWorkers = 2;

    static ServiceOptions options() {
        ServiceOptions options;
        options.queue_capacity = 65536;
        return options;
    }

    Window drive(double seconds, std::uint64_t max_ops, std::vector<SpanLog>* logs) {
        return run_clients(
            kThreads, seconds, max_ops, logs, stream_seed(seed_, 0, ++phase_),
            [this](std::size_t t, Tally& tally, SpanLog* log, atk::Rng& rng) {
                atk::net::TuningClient& client = *clients_[t];
                const std::string& session = mixes_[t].next(rng);
                Ticket ticket;
                {
                    SpanScope span(log, "client.recommend");
                    ticket = client.recommend(session);
                }
                const double cost = tally.measure(model_, ticket.trial, rng);
                bool accepted = false;
                {
                    SpanScope span(log, "client.report");
                    accepted = client.report(session, ticket, cost);
                }
                ++tally.reports_sent;
                if (!accepted) ++tally.reports_refused;
            },
            kNothingBetween);
    }

    std::vector<SessionMix> mixes_;
    std::uint64_t phase_ = 0;
    // Destroyed in reverse: clients, then the server, then the service.
    std::unique_ptr<TuningService> service_;
    std::unique_ptr<atk::net::TuningServer> server_;
    std::vector<std::unique_ptr<atk::net::TuningClient>> clients_;
};

// ---------------------------------------------------------------------------

/// A routed client over a three-node ring, many cold session names, a
/// session cap per node and periodic replication: eviction, rehydration and
/// replica pushes sit beside the reads.
class FleetChurn final : public Workload {
public:
    static constexpr std::size_t kNodes = 3;
    static constexpr std::size_t kNames = 4096;
    static constexpr double kZipfExponent = 1.1;
    static constexpr std::size_t kMaxSessions = 128;  // per node
    static constexpr std::uint64_t kWarmupOps = 8000;

    explicit FleetChurn(std::uint64_t seed)
        : Workload(seed), mix_(zipf_mix("churn", kNames, kZipfExponent, seed)) {}

    void setup() override {
        fleet_ = std::make_unique<LoopbackFleet>(kNodes, model_, options(), 1);
        client_ = std::make_unique<atk::fleet::FleetClient>(fleet_->client_options());
        // Every name once, in the seeded order, so that the window finds each
        // cold name parked (evicted or replicated), as in steady state, and
        // not yet created.
        atk::Rng rng(stream_seed(seed_, 0, 0));
        for (const std::string& name : mix_.names) {
            const Ticket ticket = client_->recommend(name);
            client_->report_async(name, ticket, model_.sample(ticket.trial, rng));
        }
        (void)drive(1e9, kWarmupOps, nullptr);
        flush_clients();
        for (TuningService* service : services()) service->flush();
    }

    Window run(double seconds, std::vector<SpanLog>* logs) override {
        return drive(seconds, kUnlimited, logs);
    }

    void flush_clients() override {
        client_->flush();
        // A reply on the same connection means the server has dispatched
        // every report frame sent before it, so a service flush after this
        // covers them.
        for (const std::string& node : fleet_->names)
            (void)client_->node_client(node).stats();
    }

    std::size_t client_threads() const override { return 1; }

    std::vector<TuningService*> services() override {
        std::vector<TuningService*> out;
        for (const auto& member : fleet_->members) out.push_back(&member->service);
        return out;
    }

    ClientCounters client_counters() const override {
        ClientCounters counters;
        counters.failovers = client_->failovers();
        for (const std::string& node : fleet_->names) {
            const atk::net::TuningClient& link = client_->node_client(node);
            counters.reconnects += link.reconnects();
            counters.timeouts += link.timeouts();
            counters.reports_lost += link.reports_lost();
        }
        return counters;
    }

    ReplayPlan replay_plan() const override {
        ReplayPlan plan;
        plan.mix = mix_;
        plan.service = options();
        plan.server_workers = 1;
        plan.ring_nodes = kNodes;
        plan.net_path = true;
        plan.fleet_path = true;
        return plan;
    }

private:
    static ServiceOptions options() {
        ServiceOptions options;
        options.queue_capacity = 65536;
        options.max_sessions = kMaxSessions;
        return options;
    }

    Window drive(double seconds, std::uint64_t max_ops, std::vector<SpanLog>* logs) {
        return run_clients(
            1, seconds, max_ops, logs, stream_seed(seed_, 0, ++phase_),
            [this](std::size_t, Tally& tally, SpanLog* log, atk::Rng& rng) {
                const std::string& session = mix_.next(rng);
                Ticket ticket;
                {
                    SpanScope span(log, "fleet.recommend");
                    ticket = client_->recommend(session);
                }
                const double cost = tally.measure(model_, ticket.trial, rng);
                {
                    SpanScope span(log, "fleet.report_async");
                    client_->report_async(session, ticket, cost);
                }
                ++tally.reports_sent;
            },
            [this](std::size_t, SpanLog* log) {
                if (++ops_ % kReplicateEvery != 0) return;
                {
                    SpanScope span(log, "fleet.flush");
                    client_->flush();
                }
                for (const auto& member : fleet_->members) {
                    SpanScope span(log, "fleet.replicate_now");
                    (void)member->node.replicate_now();
                }
            });
    }

    SessionMix mix_;
    std::uint64_t phase_ = 0;
    std::uint64_t ops_ = 0;
    // Destroyed in reverse: the client disconnects before the servers drain.
    std::unique_ptr<LoopbackFleet> fleet_;
    std::unique_ptr<atk::fleet::FleetClient> client_;
};

} // namespace

double Tally::measure(const CostModel& model, const atk::Trial& trial, atk::Rng& rng) {
    if (!model.valid(trial)) {
        ++invalid_trials;
        return CostModel::kOptimumMs;
    }
    cost_ratio_sum += model.expected(trial) / CostModel::kOptimumMs;
    return model.sample(trial, rng);
}

FleetMember::FleetMember(const std::string& name, std::vector<atk::fleet::PeerSpec> peers,
                         const CostModel& model, ServiceOptions options,
                         std::size_t workers)
    : service(model.factory(),
              [&] {
                  options.hydrator = atk::fleet::replica_hydrator(store);
                  return options;
              }()),
      node(service, store, [&] {
          atk::fleet::FleetNodeOptions node_options;
          node_options.node_name = name;
          node_options.peers = std::move(peers);
          node_options.peer_client.request_timeout = std::chrono::milliseconds(2000);
          node_options.peer_client.max_attempts = 1;
          node_options.peer_client.backoff_base = std::chrono::milliseconds(1);
          node_options.peer_client.backoff_cap = std::chrono::milliseconds(5);
          return node_options;
      }()) {
    atk::net::ServerOptions server_options;
    server_options.worker_threads = workers;
    server_options.peer_ops = node.peer_ops();
    server = std::make_unique<atk::net::TuningServer>(service, server_options);
    server->start();
}

LoopbackFleet::LoopbackFleet(std::size_t nodes, const CostModel& model,
                             const ServiceOptions& options, std::size_t workers) {
    for (std::size_t i = 0; i < nodes; ++i) names.push_back("node-" + std::to_string(i));
    for (std::size_t i = 0; i < nodes; ++i) {
        std::vector<atk::fleet::PeerSpec> peers;
        for (std::size_t j = 0; j < nodes; ++j)
            if (j != i) peers.push_back({names[j], "127.0.0.1", 0});
        members.push_back(
            std::make_unique<FleetMember>(names[i], std::move(peers), model, options, workers));
    }
    for (std::size_t i = 0; i < nodes; ++i)
        for (std::size_t j = 0; j < nodes; ++j)
            if (j != i) members[i]->node.set_peer_port(names[j], members[j]->server->port());
}

atk::fleet::FleetClientOptions LoopbackFleet::client_options() const {
    atk::fleet::FleetClientOptions options;
    for (std::size_t i = 0; i < members.size(); ++i)
        options.nodes.push_back({names[i], "127.0.0.1", members[i]->server->port()});
    options.client = bench_client_options(0, "fleet-client");
    options.retry_down_after = std::chrono::hours(1);
    return options;
}

atk::net::ClientOptions bench_client_options(std::uint16_t port, const std::string& name) {
    atk::net::ClientOptions options;
    options.port = port;
    options.client_name = name;
    options.request_timeout = std::chrono::milliseconds(2000);
    options.max_attempts = 2;
    options.backoff_base = std::chrono::milliseconds(1);
    options.backoff_cap = std::chrono::milliseconds(5);
    return options;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "embedded") return std::make_unique<Embedded>(seed);
    if (name == "remote_sync") return std::make_unique<RemoteSync>(seed);
    if (name == "fleet_churn") return std::make_unique<FleetChurn>(seed);
    return nullptr;
}

} // namespace perfbench

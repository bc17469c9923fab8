#include "replay.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace perfbench {

using atk::runtime::Ticket;
using atk::runtime::TuningService;

namespace {

/// One stage's walk over the op sequence, with the stage's time guard.
class Stage {
public:
    Stage(const std::vector<const std::string*>& names, double seconds)
        : names_(names), deadline_(now_ns() + static_cast<std::uint64_t>(seconds * 1e9)) {}

    template <typename Op>
    std::size_t run(Op op) {
        std::size_t i = 0;
        for (; i < names_.size() && now_ns() < deadline_; ++i) op(i, *names_[i]);
        return i;
    }

private:
    const std::vector<const std::string*>& names_;
    std::uint64_t deadline_;
};

double p50(const Reservoir& r) { return percentile(r, 0.5).value; }

void require(bool ok, const char* what) {
    if (!ok) throw std::runtime_error(std::string("replay: ") + what);
}

} // namespace

ReplayResult replay(const ReplayPlan& plan, const CostModel& model, std::uint64_t seed,
                    std::size_t ops, double stage_seconds) {
    atk::Rng draw(seed ^ 0x2E91A7ULL);
    std::vector<const std::string*> names;
    names.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) names.push_back(&plan.mix.next(draw));
    const std::uint64_t noise_seed = seed ^ 0x4E015EULL;
    const auto cost_of = [&](const atk::Trial& trial, atk::Rng& rng) {
        require(model.valid(trial), "invalid trial");
        return model.sample(trial, rng);
    };

    ReplayResult out;
    out.ops = ops;
    // Stages 2-4 run one service; give it the live-session capacity of the
    // whole ring, so stage 5 differs from stage 4 by routing alone.
    atk::runtime::ServiceOptions single = plan.service;
    single.max_sessions *= plan.ring_nodes;

    // ---- 1: core ----
    {
        std::map<std::string, std::unique_ptr<atk::TwoPhaseTuner>> tuners;
        const auto factory = model.factory();
        for (const std::string* name : names)
            if (!tuners.count(*name)) tuners.emplace(*name, factory(*name));
        Reservoir op, next, report;
        atk::Rng rng(noise_seed);
        out.ops = std::min(out.ops, Stage(names, stage_seconds).run([&](std::size_t,
                                                                        const std::string& name) {
            atk::TwoPhaseTuner& tuner = *tuners.at(name);
            const std::uint64_t t0 = now_ns();
            const atk::Trial trial = tuner.next();
            const std::uint64_t t1 = now_ns();
            const double cost = cost_of(trial, rng);
            const std::uint64_t t2 = now_ns();
            tuner.report(trial, cost);
            const std::uint64_t t3 = now_ns();
            next.add(static_cast<double>(t1 - t0));
            report.add(static_cast<double>(t3 - t2));
            op.add(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e3);
        }));
        out.core_us = p50(op);
        out.core_next_ns = p50(next);
        out.core_report_ns = p50(report);
    }

    // ---- 2: runtime ----
    {
        TuningService service(model.factory(), single);
        Reservoir op, begin, report, flush;
        atk::Rng rng(noise_seed);
        out.ops = std::min(out.ops, Stage(names, stage_seconds).run([&](std::size_t,
                                                                        const std::string& name) {
            const std::uint64_t t0 = now_ns();
            const Ticket ticket = service.begin(name);
            const std::uint64_t t1 = now_ns();
            const double cost = cost_of(ticket.trial, rng);
            const std::uint64_t t2 = now_ns();
            require(service.report(name, ticket, cost), "report refused");
            const std::uint64_t t3 = now_ns();
            service.flush();
            const std::uint64_t t4 = now_ns();
            begin.add(static_cast<double>(t1 - t0));
            report.add(static_cast<double>(t3 - t2));
            flush.add(static_cast<double>(t4 - t3) / 1e3);
            op.add(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e3);
        }));
        out.runtime_us = p50(op);
        out.runtime_begin_ns = p50(begin);
        out.runtime_report_ns = p50(report);
        out.runtime_flush_wait_us = p50(flush);
    }

    // ---- 3: protocol ----
    {
        namespace net = atk::net;
        TuningService service(model.factory(), single);
        net::FrameDecoder decoder;
        const auto wire = [&](const std::string& bytes) {
            decoder.feed(bytes.data(), bytes.size());
            std::optional<net::Frame> frame = decoder.next();
            require(frame.has_value(), "frame did not decode");
            return std::move(*frame);
        };
        Reservoir op, encode, decode;
        double bytes = 0.0;
        atk::Rng rng(noise_seed);
        const std::size_t done = Stage(names, stage_seconds).run([&](std::size_t,
                                                                     const std::string& name) {
            net::RecommendMsg recommend;
            recommend.session = name;
            const std::uint64_t e0 = now_ns();
            const std::string request = net::encode_recommend(recommend);
            const std::uint64_t e1 = now_ns();
            const net::RecommendMsg got = net::decode_recommend(wire(request));
            const std::uint64_t d1 = now_ns();
            const Ticket ticket = service.begin(got.session, got.features);
            const std::uint64_t s1 = now_ns();
            const std::string reply = net::encode_recommendation({got.session, ticket});
            const std::uint64_t e2 = now_ns();
            const net::RecommendationMsg recommendation =
                net::decode_recommendation(wire(reply));
            const std::uint64_t d2 = now_ns();
            const double cost = cost_of(recommendation.ticket.trial, rng);

            net::ReportMsg report;
            report.session = name;
            report.batch.push_back({recommendation.ticket, cost});
            const std::uint64_t r0 = now_ns();
            const std::string report_frame = net::encode_report(report, true);
            const std::uint64_t e3 = now_ns();
            const net::ReportMsg received = net::decode_report(wire(report_frame));
            const std::uint64_t d3 = now_ns();
            const std::size_t accepted =
                service.report_batch(received.session, received.batch, received.features);
            const std::uint64_t s2 = now_ns();
            const std::string ack = net::encode_report_ok(
                {static_cast<std::uint32_t>(accepted),
                 static_cast<std::uint32_t>(received.batch.size() - accepted)});
            const std::uint64_t e4 = now_ns();
            const net::ReportOkMsg ok = net::decode_report_ok(wire(ack));
            const std::uint64_t d4 = now_ns();
            require(ok.accepted == 1, "report refused");
            service.flush();

            const std::uint64_t enc = (e1 - e0) + (e2 - s1) + (e3 - r0) + (e4 - s2);
            const std::uint64_t dec = (d1 - e1) + (d2 - e2) + (d3 - e3) + (d4 - e4);
            const std::uint64_t svc = (s1 - d1) + (s2 - d3);
            encode.add(static_cast<double>(enc));
            decode.add(static_cast<double>(dec));
            op.add(static_cast<double>(enc + dec + svc) / 1e3);
            bytes += static_cast<double>(request.size() + reply.size() + report_frame.size() +
                                         ack.size());
        });
        out.ops = std::min(out.ops, done);
        out.protocol_us = p50(op);
        out.encode_ns = p50(encode);
        out.decode_ns = p50(decode);
        out.bytes_per_op = bytes / static_cast<double>(std::max<std::size_t>(done, 1));
    }

    // ---- 4: client ----
    {
        TuningService service(model.factory(), single);
        atk::net::ServerOptions server_options;
        server_options.worker_threads = plan.server_workers;
        atk::net::TuningServer server(service, server_options);
        server.start();
        Reservoir op, recommend, report, flush;
        {
            atk::net::TuningClient client(bench_client_options(server.port(), "replay"));
            (void)client.recommend(*names.front());  // connect outside the timing
            atk::Rng rng(noise_seed);
            Stage stage(names, stage_seconds);
            out.ops = std::min(out.ops, stage.run([&](std::size_t, const std::string& name) {
                const std::uint64_t t0 = now_ns();
                const Ticket ticket = client.recommend(name);
                const std::uint64_t t1 = now_ns();
                const double cost = cost_of(ticket.trial, rng);
                const std::uint64_t t2 = now_ns();
                require(client.report(name, ticket, cost), "report refused");
                const std::uint64_t t3 = now_ns();
                service.flush();
                recommend.add(static_cast<double>(t1 - t0) / 1e3);
                report.add(static_cast<double>(t3 - t2) / 1e3);
                op.add(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e3);
            }));
            // The async path: one queued report shipped by flush_reports().
            const std::size_t probes = std::max<std::size_t>(out.ops / 10, 1);
            for (std::size_t i = 0; i < probes; ++i) {
                const std::string& name = *names[i];
                const Ticket ticket = client.recommend(name);
                client.report_async(name, ticket, cost_of(ticket.trial, rng));
                const std::uint64_t t0 = now_ns();
                client.flush_reports();
                flush.add(static_cast<double>(now_ns() - t0) / 1e3);
                service.flush();
            }
        }
        out.client_us = p50(op);
        out.client_recommend_us_p50 = p50(recommend);
        out.client_recommend_us_p99 = percentile(recommend, 0.99).value;
        out.client_report_us_p50 = p50(report);
        out.client_report_us_p99 = percentile(report, 0.99).value;
        out.client_flush_us = p50(flush);
    }

    // ---- 5: fleet ----
    {
        LoopbackFleet fleet(plan.ring_nodes, model, plan.service, plan.server_workers);
        Reservoir op, route, replicate;
        std::uint64_t rounds = 0;
        const auto push_bytes = [&] {
            std::uint64_t total = 0;
            for (const auto& member : fleet.members) total += member->node.stats().push_bytes;
            return total;
        };
        const std::uint64_t pushed_before = push_bytes();
        const auto replicate_round = [&] {
            ++rounds;
            for (const auto& member : fleet.members) {
                const std::uint64_t r0 = now_ns();
                (void)member->node.replicate_now();
                replicate.add(static_cast<double>(now_ns() - r0) / 1e6);
            }
        };
        {
            atk::fleet::FleetClient client(fleet.client_options());
            for (const std::string& node : fleet.names)  // connect outside the timing
                (void)client.node_client(node).stats();
            atk::Rng rng(noise_seed);
            Stage stage(names, stage_seconds);
            out.ops = std::min(out.ops, stage.run([&](std::size_t i, const std::string& name) {
                const std::uint64_t t0 = now_ns();
                const std::string& owner = client.route(name);
                const std::uint64_t t1 = now_ns();
                const Ticket ticket = client.recommend(name);
                const std::uint64_t t2 = now_ns();
                const double cost = cost_of(ticket.trial, rng);
                const std::uint64_t t3 = now_ns();
                require(client.report(name, ticket, cost), "report refused");
                const std::uint64_t t4 = now_ns();
                for (std::size_t m = 0; m < fleet.names.size(); ++m)
                    if (fleet.names[m] == owner) fleet.members[m]->service.flush();
                route.add(static_cast<double>(t1 - t0));
                op.add(static_cast<double>((t2 - t1) + (t4 - t3)) / 1e3);
                if ((i + 1) % kReplicateEvery == 0) replicate_round();
            }));
        }
        out.fleet_us = p50(op);
        out.route_ns = p50(route);
        if (rounds == 0) replicate_round();  // a short stage still measures one round
        out.replicate_ms = p50(replicate);
        out.push_bytes_per_round =
            static_cast<double>(push_bytes() - pushed_before) / static_cast<double>(rounds);
    }
    return out;
}

} // namespace perfbench

#pragma once

/// The benchmark's own measuring pieces: a fixed-memory latency sampler,
/// weighted percentiles that state their sample count, seeded session-name
/// mixes (uniform and Zipf), benchmark-side spans, and a small JSON value
/// with a writer and a parser.  Nothing here calls into the program.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Uniform fixed-capacity sample of an unbounded stream (Vitter's
/// algorithm R).  Memory stays the same however many values arrive, so the
/// benchmark's own footprint never depends on how fast the program runs.
class Reservoir {
public:
    explicit Reservoir(std::size_t capacity = 65536, std::uint64_t seed = 1);

    void add(double value);

    [[nodiscard]] std::uint64_t population() const noexcept { return seen_; }
    [[nodiscard]] const std::vector<double>& kept() const noexcept { return kept_; }

private:
    std::size_t capacity_;
    std::uint64_t seen_ = 0;
    std::vector<double> kept_;
    atk::Rng rng_;
};

/// A percentile and what it rests on: `samples` values were kept out of
/// `population` observed (equal when nothing was subsampled).
struct Percentile {
    double value = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t population = 0;
};

/// The q-quantile (q in [0, 1]) over the union of several reservoirs.
/// Each kept value stands for population/kept observations of its stream,
/// so streams of different rates merge without bias.  The value returned is
/// always one that was measured (inverse-CDF rule, no interpolation).
/// Throws std::invalid_argument when every reservoir is empty.
[[nodiscard]] Percentile percentile(const std::vector<const Reservoir*>& parts, double q);
[[nodiscard]] Percentile percentile(const Reservoir& part, double q);

/// A fixed set of session names and the probability of drawing each.
struct SessionMix {
    std::vector<std::string> names;
    std::vector<double> cdf;  ///< cumulative, last entry 1

    [[nodiscard]] std::size_t draw(atk::Rng& rng) const;
    [[nodiscard]] const std::string& next(atk::Rng& rng) const {
        return names[draw(rng)];
    }
};

/// `count` equally likely names "<prefix>/s<i>".
[[nodiscard]] SessionMix uniform_mix(const std::string& prefix, std::size_t count);

/// `count` names drawn with Zipf probability 1/rank^exponent.  Which name
/// holds which rank is a seeded shuffle, so the hot set (and the ring nodes
/// it lands on) changes with the seed while the shape does not.
[[nodiscard]] SessionMix zipf_mix(const std::string& prefix, std::size_t count,
                                  double exponent, std::uint64_t seed);

/// Spans recorded by the benchmark around its own calls into the program.
/// One log per client thread.  Durations go into per-name reservoirs (for
/// percentiles); the first `keep` spans are also kept whole so they can be
/// written out as a Chrome trace when the run ends.
class SpanLog {
public:
    struct Record {
        const char* name = nullptr;
        std::uint64_t op = 0;      ///< the op this span belongs to
        std::uint32_t depth = 0;   ///< 0 = the op itself
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
    };

    explicit SpanLog(std::uint32_t thread = 0, std::size_t keep = 20000);

    void open(const char* name);
    void close();
    void next_op() noexcept { ++op_; }

    /// Durations (ns) of every closed span called `name`; nullptr if none.
    [[nodiscard]] const Reservoir* durations(std::string_view name) const;
    [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }
    [[nodiscard]] std::uint32_t thread() const noexcept { return thread_; }

private:
    struct Open {
        const char* name;
        std::uint64_t start_ns;
    };
    std::uint32_t thread_;
    std::size_t keep_;
    std::uint64_t op_ = 0;
    std::vector<Open> stack_;
    std::vector<Record> records_;
    std::vector<std::pair<const char*, Reservoir>> by_name_;
};

/// RAII span on an optional log: a null log (the untraced run) costs one
/// branch.
class SpanScope {
public:
    SpanScope(SpanLog* log, const char* name) : log_(log) {
        if (log_ != nullptr) log_->open(name);
    }
    ~SpanScope() {
        if (log_ != nullptr) log_->close();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanLog* log_;
};

/// p-quantile of the durations of span `name` over several logs, in ns.
[[nodiscard]] Percentile span_percentile(const std::vector<SpanLog>& logs,
                                         std::string_view name, double q);

/// Chrome trace-event JSON of the kept records (loadable in Perfetto).
[[nodiscard]] std::string chrome_trace(const std::vector<SpanLog>& logs);

/// True when `name` is a valid metric name: [A-Za-z0-9_.-]+.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// A JSON value.  Objects keep insertion order.
struct Json {
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value;

    Json() : value(nullptr) {}
    Json(bool b) : value(b) {}
    Json(double d) : value(d) {}
    Json(int i) : value(static_cast<double>(i)) {}
    Json(std::uint64_t u) : value(static_cast<double>(u)) {}
    Json(const char* s) : value(std::string(s)) {}
    Json(std::string s) : value(std::move(s)) {}
    Json(Array a) : value(std::move(a)) {}
    Json(Object o) : value(std::move(o)) {}

    friend bool operator==(const Json&, const Json&) = default;
};

/// Compact one-line JSON.  Numbers are written with 17 significant digits,
/// so a double survives the round trip exactly.  Throws
/// std::invalid_argument on a non-finite number.
[[nodiscard]] std::string dump(const Json& json);

/// Parses one JSON document.  Throws std::invalid_argument on malformed
/// input or trailing data.
[[nodiscard]] Json parse_json(std::string_view text);

} // namespace perfbench

#include "bench_support.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity == 0 ? 1 : capacity), rng_(seed) {
    kept_.reserve(capacity_);
}

void Reservoir::add(double value) {
    ++seen_;
    if (kept_.size() < capacity_) {
        kept_.push_back(value);
        return;
    }
    const std::uint64_t slot = rng_() % seen_;
    if (slot < capacity_) kept_[static_cast<std::size_t>(slot)] = value;
}

Percentile percentile(const std::vector<const Reservoir*>& parts, double q) {
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q outside [0, 1]");
    std::vector<std::pair<double, double>> weighted;  // value, weight
    Percentile out;
    for (const Reservoir* part : parts) {
        if (part == nullptr || part->kept().empty()) continue;
        const double weight = static_cast<double>(part->population()) /
                              static_cast<double>(part->kept().size());
        for (const double v : part->kept()) weighted.emplace_back(v, weight);
        out.samples += part->kept().size();
        out.population += part->population();
    }
    if (weighted.empty()) throw std::invalid_argument("percentile: no samples");
    std::sort(weighted.begin(), weighted.end());
    double total = 0.0;
    for (const auto& [value, weight] : weighted) total += weight;
    const double target = q * total;
    double cumulative = 0.0;
    out.value = weighted.back().first;
    for (const auto& [value, weight] : weighted) {
        cumulative += weight;
        if (cumulative >= target) {
            out.value = value;
            break;
        }
    }
    return out;
}

Percentile percentile(const Reservoir& part, double q) {
    return percentile(std::vector<const Reservoir*>{&part}, q);
}

std::size_t SessionMix::draw(atk::Rng& rng) const {
    const double u = rng.uniform_real();
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                 names.size() - 1);
}

SessionMix uniform_mix(const std::string& prefix, std::size_t count) {
    SessionMix mix;
    for (std::size_t i = 0; i < count; ++i) {
        mix.names.push_back(prefix + "/s" + std::to_string(i));
        mix.cdf.push_back(static_cast<double>(i + 1) / static_cast<double>(count));
    }
    return mix;
}

SessionMix zipf_mix(const std::string& prefix, std::size_t count, double exponent,
                    std::uint64_t seed) {
    SessionMix mix = uniform_mix(prefix, count);
    atk::Rng rng(seed ^ 0x5A17F00DULL);
    rng.shuffle(mix.names);
    double total = 0.0;
    for (std::size_t rank = 1; rank <= count; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank), exponent);
        mix.cdf[rank - 1] = total;
    }
    for (double& c : mix.cdf) c /= total;
    mix.cdf.back() = 1.0;
    return mix;
}

SpanLog::SpanLog(std::uint32_t thread, std::size_t keep) : thread_(thread), keep_(keep) {
    records_.reserve(keep_);
}

void SpanLog::open(const char* name) { stack_.push_back({name, now_ns()}); }

void SpanLog::close() {
    const std::uint64_t end = now_ns();
    const Open top = stack_.back();
    stack_.pop_back();
    if (records_.size() < keep_)
        records_.push_back({top.name, op_, static_cast<std::uint32_t>(stack_.size()),
                            top.start_ns, end});
    auto it = std::find_if(by_name_.begin(), by_name_.end(),
                           [&](const auto& entry) { return entry.first == top.name; });
    if (it == by_name_.end()) {
        by_name_.emplace_back(top.name, Reservoir(65536, thread_ * 7919ULL + by_name_.size()));
        it = std::prev(by_name_.end());
    }
    it->second.add(static_cast<double>(end - top.start_ns));
}

const Reservoir* SpanLog::durations(std::string_view name) const {
    for (const auto& [n, reservoir] : by_name_)
        if (name == n) return &reservoir;
    return nullptr;
}

Percentile span_percentile(const std::vector<SpanLog>& logs, std::string_view name,
                           double q) {
    std::vector<const Reservoir*> parts;
    for (const SpanLog& log : logs) parts.push_back(log.durations(name));
    return percentile(parts, q);
}

std::string chrome_trace(const std::vector<SpanLog>& logs) {
    std::string out = "[\n";
    bool first = true;
    char line[256];
    for (const SpanLog& log : logs) {
        for (const SpanLog::Record& r : log.records()) {
            std::snprintf(line, sizeof line,
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                          first ? "" : ",\n", r.name, log.thread(),
                          static_cast<double>(r.start_ns) / 1000.0,
                          static_cast<double>(r.end_ns - r.start_ns) / 1000.0,
                          static_cast<unsigned long long>(r.op));
            out += line;
            first = false;
        }
    }
    out += "\n]\n";
    return out;
}

bool valid_metric_name(std::string_view name) noexcept {
    if (name.empty()) return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    });
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string& out) {
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void dump_into(const Json& json, std::string& out) {
    if (std::holds_alternative<std::nullptr_t>(json.value)) {
        out += "null";
    } else if (const bool* b = std::get_if<bool>(&json.value)) {
        out += *b ? "true" : "false";
    } else if (const double* d = std::get_if<double>(&json.value)) {
        if (!std::isfinite(*d)) throw std::invalid_argument("json: non-finite number");
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", *d);
        out += buf;
    } else if (const std::string* s = std::get_if<std::string>(&json.value)) {
        dump_string(*s, out);
    } else if (const Json::Array* a = std::get_if<Json::Array>(&json.value)) {
        out += '[';
        for (std::size_t i = 0; i < a->size(); ++i) {
            if (i != 0) out += ", ";
            dump_into((*a)[i], out);
        }
        out += ']';
    } else {
        const auto& o = std::get<Json::Object>(json.value);
        out += '{';
        for (std::size_t i = 0; i < o.size(); ++i) {
            if (i != 0) out += ", ";
            dump_string(o[i].first, out);
            out += ": ";
            dump_into(o[i].second, out);
        }
        out += '}';
    }
}

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json document() {
        Json json = value();
        skip_space();
        if (pos_ != text_.size()) fail("trailing data");
        return json;
    }

private:
    [[noreturn]] void fail(const char* what) const {
        throw std::invalid_argument(std::string("json: ") + what + " at offset " +
                                    std::to_string(pos_));
    }
    void skip_space() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
                text_[pos_] == '\r'))
            ++pos_;
    }
    bool consume(std::string_view token) {
        if (text_.substr(pos_, token.size()) != token) return false;
        pos_ += token.size();
        return true;
    }
    void expect(char c) {
        skip_space();
        if (pos_ >= text_.size() || text_[pos_] != c) fail("unexpected character");
        ++pos_;
    }

    Json value() {
        skip_space();
        if (pos_ >= text_.size()) fail("unexpected end");
        const char c = text_[pos_];
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') return Json(string());
        if (consume("null")) return Json();
        if (consume("true")) return Json(true);
        if (consume("false")) return Json(false);
        return Json(number());
    }

    Json object() {
        expect('{');
        Json::Object out;
        skip_space();
        if (consume("}")) return Json(std::move(out));
        for (;;) {
            skip_space();
            std::string key = string();
            expect(':');
            out.emplace_back(std::move(key), value());
            skip_space();
            if (consume("}")) return Json(std::move(out));
            expect(',');
        }
    }

    Json array() {
        expect('[');
        Json::Array out;
        skip_space();
        if (consume("]")) return Json(std::move(out));
        for (;;) {
            out.push_back(value());
            skip_space();
            if (consume("]")) return Json(std::move(out));
            expect(',');
        }
    }

    std::string string() {
        if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
        ++pos_;
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size()) fail("truncated escape");
                const char e = text_[pos_++];
                switch (e) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated escape");
                    const unsigned long code =
                        std::stoul(std::string(text_.substr(pos_, 4)), nullptr, 16);
                    if (code > 0x7f) fail("non-ASCII escape");
                    c = static_cast<char>(code);
                    pos_ += 4;
                    break;
                }
                default: c = e;
                }
            }
            out += c;
        }
        if (pos_ >= text_.size()) fail("unterminated string");
        ++pos_;
        return out;
    }

    double number() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::string_view("+-0123456789.eE").find(text_[pos_]) != std::string_view::npos)
            ++pos_;
        if (pos_ == start) fail("unexpected character");
        const std::string token(text_.substr(start, pos_ - start));
        std::size_t used = 0;
        const double d = std::stod(token, &used);
        if (used != token.size()) fail("malformed number");
        return d;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

std::string dump(const Json& json) {
    std::string out;
    dump_into(json, out);
    return out;
}

Json parse_json(std::string_view text) { return Parser(text).document(); }

} // namespace perfbench

#include "sim/fault.hh"

#include <stdexcept>
#include <string>

#include "sim/parse.hh"

namespace iocost::sim {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::LatencyMult:
        return "lat";
    case FaultKind::ErrorRate:
        return "err";
    case FaultKind::Stall:
        return "stall";
    case FaultKind::WriteCliff:
        return "cliff";
    }
    return "?";
}

namespace {

[[noreturn]] void
bad(const std::string &token, const std::string &why)
{
    throw std::invalid_argument("faults: bad token \"" + token +
                                "\": " + why);
}

/** The grammar's name for @p token in value errors. */
std::string
tokenName(const std::string &token)
{
    return "faults: bad token \"" + token + "\"";
}

/** Parse "KIND@START+DUR[=PARAM]" into a FaultWindow. */
FaultWindow
parseWindow(const std::string &token, FaultKind kind,
            const std::string &rest)
{
    const size_t plus = rest.find('+');
    if (plus == std::string::npos)
        bad(token, "expected START+DUR after '@'");
    const size_t eq = rest.find('=', plus);

    FaultWindow w;
    w.kind = kind;
    w.start = parseTime(rest.substr(0, plus), tokenName(token));
    const size_t dur_end =
        (eq == std::string::npos ? rest.size() : eq) - (plus + 1);
    w.duration =
        parseTime(rest.substr(plus + 1, dur_end), tokenName(token));
    if (w.duration <= 0)
        bad(token, "window duration must be positive");

    const bool wants_param =
        kind == FaultKind::LatencyMult || kind == FaultKind::ErrorRate;
    if (wants_param) {
        if (eq == std::string::npos)
            bad(token, "expected '=<value>'");
        w.param = parseNumber(rest.substr(eq + 1), tokenName(token));
        if (kind == FaultKind::LatencyMult && w.param <= 0.0)
            bad(token, "latency multiplier must be > 0");
        if (kind == FaultKind::ErrorRate &&
            (w.param < 0.0 || w.param > 1.0))
            bad(token, "error rate must be in [0, 1]");
    } else if (eq != std::string::npos) {
        bad(token, "takes no '=<value>'");
    }
    return w;
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    size_t begin = 0;
    while (begin <= spec.size()) {
        size_t end = spec.find(',', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string token = spec.substr(begin, end - begin);
        begin = end + 1;
        if (token.empty()) {
            if (end == spec.size())
                break;
            bad(token, "empty token");
        }

        const size_t at = token.find('@');
        if (at != std::string::npos) {
            const std::string kind_name = token.substr(0, at);
            const std::string rest = token.substr(at + 1);
            FaultKind kind;
            if (kind_name == "lat")
                kind = FaultKind::LatencyMult;
            else if (kind_name == "err")
                kind = FaultKind::ErrorRate;
            else if (kind_name == "stall")
                kind = FaultKind::Stall;
            else if (kind_name == "cliff")
                kind = FaultKind::WriteCliff;
            else
                bad(token, "unknown fault kind \"" + kind_name + "\"");
            plan.windows.push_back(parseWindow(token, kind, rest));
            continue;
        }

        const size_t eq = token.find('=');
        if (eq == std::string::npos)
            bad(token, "expected KIND@... or KEY=VALUE");
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "seed") {
            const double n = parseNumber(value, tokenName(token));
            if (n < 0.0 || n >= 0x1p64)
                bad(token, "seed must be in [0, 2^64)");
            plan.seed = static_cast<uint64_t>(n);
        } else if (key == "retries") {
            const double n = parseNumber(value, tokenName(token));
            if (n < 0.0 || n > 32.0)
                bad(token, "retries must be in [0, 32]");
            plan.maxRetries = static_cast<unsigned>(n);
        } else if (key == "backoff") {
            plan.retryBackoffBase =
                parseTime(value, tokenName(token));
            if (plan.retryBackoffBase <= 0)
                bad(token, "backoff must be positive");
        } else if (key == "timeout") {
            plan.bioTimeout = parseTime(value, tokenName(token));
        } else {
            bad(token, "unknown key \"" + key + "\"");
        }
    }
    return plan;
}

} // namespace iocost::sim

#include "whatif/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "sim/parse.hh"

namespace iocost::whatif {

namespace {

[[noreturn]] void
bad(const std::string &what)
{
    throw std::invalid_argument("whatif scenario: " + what);
}

} // namespace

Scenario
Scenario::parse(const std::string &text)
{
    Scenario sc;
    forEachEntry(text, [&sc](const std::string &key,
                             const std::string &value) {
        if (key != "marks") {
            if (!sc.set(key, value, "whatif scenario: " + key))
                bad("unknown key \"" + key + "\"");
            return;
        }
        std::istringstream list(value);
        for (std::string tok; std::getline(list, tok, ',');) {
            tok.erase(0, tok.find_first_not_of(" \t\r"));
            tok.erase(tok.find_last_not_of(" \t\r") + 1);
            if (!tok.empty()) {
                sc.marks.push_back(
                    sim::parseTime(tok, "whatif scenario: marks"));
            }
        }
    });
    sc.normalize();
    return sc;
}

void
Scenario::normalize()
{
    ScenarioSpec::normalize();
    const sim::Time total = duration();
    if (marks.empty()) {
        // Quarter points: a query's replay never spans more than a
        // quarter of the run.
        marks = {0, total / 4, total / 2, 3 * (total / 4)};
    }
    marks.push_back(0);
    std::sort(marks.begin(), marks.end());
    marks.erase(std::unique(marks.begin(), marks.end()),
                marks.end());
    if (marks.back() > total)
        bad("checkpoint mark beyond the run duration");
}

std::string
Scenario::canonical() const
{
    std::string out = ScenarioSpec::canonical() + ";marks=";
    char buf[32];
    for (size_t i = 0; i < marks.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%lld", i ? "," : "",
                      static_cast<long long>(marks[i]));
        out += buf;
    }
    return out;
}

uint64_t
Scenario::hash() const
{
    const std::string text = canonical();
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace iocost::whatif

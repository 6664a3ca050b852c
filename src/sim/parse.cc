#include "sim/parse.hh"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace iocost::sim {

namespace {

[[noreturn]] void
bad(const std::string &what, const std::string &why)
{
    throw std::invalid_argument(what + ": " + why);
}

/**
 * The finite number @p text starts with; @p pos receives the index
 * of the first character after it (the unit suffix, if any).
 */
double
leadingNumber(const std::string &text, const std::string &what,
              const char *noun, size_t &pos)
{
    if (text.empty())
        bad(what, std::string("empty ") + noun + " value");
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        bad(what, std::string("unparsable ") + noun + " \"" + text +
                      "\"");
    if (!std::isfinite(value))
        bad(what, std::string("non-finite ") + noun + " \"" + text +
                      "\"");
    pos = static_cast<size_t>(end - text.c_str());
    return value;
}

/** @p value scaled into [0, @p limit), or a rejection. */
double
scaled(double value, double scale, double limit,
       const std::string &text, const std::string &what,
       const char *noun)
{
    if (value < 0.0)
        bad(what, std::string("negative ") + noun + " \"" + text +
                      "\"");
    const double out = value * scale;
    if (!(out < limit))
        bad(what, std::string(noun) + " out of range \"" + text +
                      "\"");
    return out;
}

} // namespace

double
parseNumber(const std::string &text, const std::string &what)
{
    size_t pos = 0;
    const double value = leadingNumber(text, what, "number", pos);
    if (pos != text.size())
        bad(what, "trailing junk after \"" + text + "\"");
    return value;
}

uint64_t
parseCount(const std::string &text, const std::string &what,
           uint64_t max)
{
    if (text.empty())
        bad(what, "empty count value");
    uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            bad(what, "unparsable count \"" + text + "\"");
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (digit > max || value > (max - digit) / 10)
            bad(what, "count out of range \"" + text + "\" (max " +
                          std::to_string(max) + ")");
        value = value * 10 + digit;
    }
    return value;
}

Time
parseTime(const std::string &text, const std::string &what)
{
    size_t pos = 0;
    const double value = leadingNumber(text, what, "time", pos);
    const std::string unit = text.substr(pos);
    double scale = 0.0;
    if (unit.empty() || unit == "ms")
        scale = static_cast<double>(kMsec);
    else if (unit == "ns")
        scale = static_cast<double>(kNsec);
    else if (unit == "us")
        scale = static_cast<double>(kUsec);
    else if (unit == "s")
        scale = static_cast<double>(kSec);
    else
        bad(what, "unknown time unit \"" + unit + "\"");
    // 2^63 ns: the first value a Time cannot hold.
    return static_cast<Time>(
        scaled(value, scale, 0x1p63, text, what, "time"));
}

uint64_t
parseBytes(const std::string &text, const std::string &what)
{
    size_t pos = 0;
    const double value = leadingNumber(text, what, "size", pos);
    const std::string unit = text.substr(pos);
    double scale = 1.0;
    if (unit == "K" || unit == "k")
        scale = 0x1p10;
    else if (unit == "M" || unit == "m")
        scale = 0x1p20;
    else if (unit == "G" || unit == "g")
        scale = 0x1p30;
    else if (!unit.empty())
        bad(what, "unknown size suffix \"" + unit + "\"");
    return static_cast<uint64_t>(
        scaled(value, scale, 0x1p64, text, what, "size"));
}

} // namespace iocost::sim

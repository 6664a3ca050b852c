/**
 * @file
 * Value tokens shared by every spec grammar: plain numbers, whole
 * counts, times and byte sizes.
 *
 * The CLIs, the single-host scenario spec, the what-if query, the
 * fault plan and the fleet scenario all read their numbers through
 * these functions, so a value means the same thing wherever it is
 * written and every grammar rejects the same garbage: text that is
 * not a number, trailing junk, NaN and infinities, negative times
 * and sizes, and values that do not fit the destination type.
 *
 *   NUMBER := a finite decimal (strtod syntax, whole text)
 *   COUNT  := decimal digits only
 *   TIME   := NUMBER ["ns"|"us"|"ms"|"s"]   (default unit: ms)
 *   BYTES  := NUMBER ["K"|"M"|"G"]          (binary, either case)
 *
 * Every function throws std::invalid_argument("<what>: <reason>"),
 * where @p what names the value for the user (a flag, a key, or a
 * token with its grammar's prefix).
 */

#ifndef IOCOST_SIM_PARSE_HH
#define IOCOST_SIM_PARSE_HH

#include <cstdint>
#include <limits>
#include <string>

#include "sim/time.hh"

namespace iocost::sim {

/** A finite number spanning all of @p text. */
double parseNumber(const std::string &text, const std::string &what);

/** A whole number in [0, @p max], decimal digits only. */
uint64_t parseCount(const std::string &text, const std::string &what,
                    uint64_t max = std::numeric_limits<uint64_t>::max());

/** A non-negative time with an optional unit suffix (default ms). */
Time parseTime(const std::string &text, const std::string &what);

/** A non-negative byte size with an optional K/M/G suffix. */
uint64_t parseBytes(const std::string &text, const std::string &what);

} // namespace iocost::sim

#endif // IOCOST_SIM_PARSE_HH

/**
 * @file
 * Command-line plumbing the iocost tools share: a clean exit for a
 * rejected value, whole-number flag values, and file arguments.
 */

#ifndef IOCOST_TOOLS_CLI_HH
#define IOCOST_TOOLS_CLI_HH

#include <climits>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace iocost::cli {

/** Run @p fn, turning a rejected value or a failed run into exit
 *  status 1 with the error's message. */
template <class Fn>
auto
orFatal(Fn &&fn)
{
    try {
        return fn();
    } catch (const std::exception &err) {
        sim::fatal(err.what());
    }
}

/** The whole-number value of @p flag (--jobs, --hosts, ...). */
inline unsigned
count(const std::string &value, const std::string &flag)
{
    return static_cast<unsigned>(orFatal(
        [&] { return sim::parseCount(value, flag, UINT_MAX); }));
}

/** The contents of @p path. */
inline std::string
readFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        sim::fatal("cannot read " + path);
    std::string text;
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

/** A spec argument: inline text, or "@FILE" for FILE's contents. */
inline std::string
specText(const std::string &arg)
{
    return !arg.empty() && arg[0] == '@' ? readFile(arg.substr(1))
                                         : arg;
}

/** @p path opened for writing. */
inline FILE *
openOut(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        sim::fatal("cannot write " + path);
    return f;
}

} // namespace iocost::cli

#endif // IOCOST_TOOLS_CLI_HH

#include "host/config.hh"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/parse.hh"

namespace iocost::host {

std::optional<uint64_t>
parseSize(const std::string &text)
{
    try {
        return sim::parseBytes(text, "size");
    } catch (const std::invalid_argument &) {
        return std::nullopt;
    }
}

namespace {

/** Split a path into components, ignoring leading '/'. */
std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(path);
    while (std::getline(in, part, '/')) {
        if (!part.empty())
            parts.push_back(part);
    }
    return parts;
}

cgroup::CgroupId
childByName(cgroup::CgroupTree &tree, cgroup::CgroupId parent,
            const std::string &name)
{
    for (cgroup::CgroupId child : tree.children(parent)) {
        if (tree.name(child) == name)
            return child;
    }
    return cgroup::kNone;
}

} // namespace

cgroup::CgroupId
findCgroup(cgroup::CgroupTree &tree, const std::string &path)
{
    cgroup::CgroupId cur = cgroup::kRoot;
    for (const std::string &part : splitPath(path)) {
        cur = childByName(tree, cur, part);
        if (cur == cgroup::kNone)
            return cgroup::kNone;
    }
    return cur;
}

cgroup::CgroupId
ensureCgroup(cgroup::CgroupTree &tree, const std::string &path)
{
    cgroup::CgroupId cur = cgroup::kRoot;
    for (const std::string &part : splitPath(path)) {
        const cgroup::CgroupId next = childByName(tree, cur, part);
        cur = next != cgroup::kNone ? next : tree.create(cur, part);
    }
    return cur;
}

ApplyResult
applyConfig(Host &host, const std::string &config)
{
    ApplyResult result;
    std::istringstream lines(config);
    std::string line;
    unsigned line_no = 0;
    while (std::getline(lines, line)) {
        ++line_no;
        // Strip comments.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream in(line);
        std::string path;
        if (!(in >> path))
            continue; // blank line

        const cgroup::CgroupId cg =
            ensureCgroup(host.tree(), path);
        std::string setting;
        bool any = false;
        while (in >> setting) {
            auto fail = [&](const std::string &why) {
                result.error =
                    "line " + std::to_string(line_no) + ": " + why;
                return result;
            };
            const auto eq = setting.find('=');
            if (eq == std::string::npos)
                return fail("expected key=value, got '" + setting +
                            "'");
            const std::string key = setting.substr(0, eq);
            const std::string value = setting.substr(eq + 1);
            const auto size = parseSize(value);
            if (key == "io.weight") {
                if (!size || *size == 0 || *size > 10000)
                    return fail("bad io.weight '" + value + "'");
                host.tree().setWeight(cg,
                                      static_cast<uint32_t>(*size));
            } else if (key == "memory.low") {
                if (!size)
                    return fail("bad memory.low '" + value + "'");
                if (!host.hasMemory())
                    return fail("memory.low requires enableMemory");
                host.mm().setProtection(cg, *size);
            } else if (key == "memory.dirty_limit") {
                if (!size) {
                    return fail("bad memory.dirty_limit '" + value +
                                "'");
                }
                if (!host.hasPageCache()) {
                    return fail("memory.dirty_limit requires "
                                "enablePageCache");
                }
                host.pageCache().setDirtyLimit(cg, *size);
            } else {
                return fail("unknown key '" + key + "'");
            }
            any = true;
        }
        if (any)
            ++result.applied;
    }
    return result;
}

} // namespace iocost::host

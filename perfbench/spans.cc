#include "spans.hh"

#include <cstdio>

namespace perfbench
{

SpanTree::SpanTree(std::string root)
{
    spans_.push_back(Span{0, -1, std::move(root), 0, 0});
}

int
SpanTree::child(int parent, std::string_view name)
{
    for (const Span &s : spans_)
        if (s.parent == parent && s.name == name)
            return s.id;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{id, parent, std::string(name), 0, 0});
    return id;
}

std::uint64_t
SpanTree::selfNs(int id) const
{
    std::uint64_t children = 0;
    for (const Span &s : spans_)
        if (s.parent == id)
            children += s.ns;
    const std::uint64_t total = spans_[static_cast<std::size_t>(id)].ns;
    return children >= total ? 0 : total - children;
}

void
SpanTree::merge(const SpanTree &other)
{
    // Parents precede children in both trees, so one pass maps ids.
    std::vector<int> map(other.spans_.size(), kRoot);
    for (const Span &s : other.spans_) {
        const int mine =
            s.parent < 0
                ? kRoot
                : child(map[static_cast<std::size_t>(s.parent)], s.name);
        map[static_cast<std::size_t>(s.id)] = mine;
        add(mine, s.ns, s.calls);
    }
}

std::string
layerOf(std::string_view name)
{
    return std::string(name.substr(0, name.find('.')));
}

std::map<std::string, std::uint64_t>
SpanTree::layerSelfNs() const
{
    std::map<std::string, std::uint64_t> out;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            out[layerOf(s.name)] += selfNs(s.id);
    return out;
}

std::uint64_t
SpanTree::nsOf(std::string_view name) const
{
    std::uint64_t total = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            total += s.ns;
    return total;
}

double
SpanTree::coverage() const
{
    const std::uint64_t wall = spans_[kRoot].ns;
    if (wall == 0)
        return 0.0;
    std::uint64_t covered = 0;
    for (const auto &[layer, ns] : layerSelfNs())
        covered += ns;
    return static_cast<double>(covered) / static_cast<double>(wall);
}

std::string
SpanTree::toJson() const
{
    std::string out = "[";
    for (const Span &s : spans_) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\n {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                      "\"ns\": %llu, \"calls\": %llu, \"self_ns\": %llu}",
                      s.id == 0 ? "" : ",", s.id, s.parent, s.name.c_str(),
                      static_cast<unsigned long long>(s.ns),
                      static_cast<unsigned long long>(s.calls),
                      static_cast<unsigned long long>(selfNs(s.id)));
        out += buf;
    }
    out += "\n]";
    return out;
}

} // namespace perfbench

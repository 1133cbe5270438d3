#include "bench_stats.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace
{

/** 1-based nearest rank of the @p permille percentile of @p n samples. */
std::size_t
nearestRank(std::size_t n, unsigned permille)
{
    const std::size_t rank = (permille * n + 999) / 1000;
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

std::size_t
samplesBeyond(std::size_t n, unsigned permille)
{
    return n == 0 ? 0 : n - nearestRank(n, permille);
}

unsigned
highestReportablePermille(std::size_t n,
                          const std::vector<unsigned> &candidates,
                          std::size_t min_beyond)
{
    unsigned best = 0;
    for (unsigned p : candidates)
        if (p > best && samplesBeyond(n, p) >= min_beyond)
            best = p;
    return best;
}

double
percentile(std::vector<double> values, unsigned permille)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(values.size(), permille) - 1];
}

double
failureShare(std::uint64_t failed, std::uint64_t attempted)
{
    if (attempted == 0)
        throw std::invalid_argument("failure share of zero attempts");
    if (failed > attempted)
        throw std::invalid_argument("more failures than attempts");
    return static_cast<double>(failed) / static_cast<double>(attempted);
}

namespace
{

bool
allOf(std::string_view s, std::string_view extra)
{
    return std::all_of(s.begin(), s.end(), [extra](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
               extra.find(c) != std::string_view::npos;
    });
}

} // namespace

bool
validMetricName(std::string_view name)
{
    return !name.empty() && name.size() <= 64 &&
           std::isalnum(static_cast<unsigned char>(name[0])) != 0 &&
           allOf(name, "_.-");
}

bool
validUnit(std::string_view unit)
{
    return !unit.empty() && unit.size() <= 16 && allOf(unit, "_/%.-");
}

namespace
{

/** FNV-1a 64-bit hash, continuing from @p h. */
std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::uint64_t
statsDigest(
    const std::vector<std::pair<std::string,
                                std::vector<std::pair<std::string, double>>>>
        &results)
{
    std::vector<std::string> lines;
    for (const auto &[label, stats] : results) {
        for (const auto &[name, value] : stats) {
            char buf[64];
            // %a prints the exact binary value, so equal digests mean
            // bit-identical statistics.
            std::snprintf(buf, sizeof(buf), "=%a", value);
            lines.push_back(label + " " + name + buf);
        }
    }
    std::sort(lines.begin(), lines.end());
    std::uint64_t h = fnv1a("");
    for (const auto &line : lines) {
        h = fnv1a(line, h);
        h = fnv1a("\n", h);
    }
    return h;
}

} // namespace perfbench

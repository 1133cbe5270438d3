/**
 * @file
 * The benchmark's own arithmetic: medians and percentiles with the
 * reporting rule, failure shares, result digests and metric-name
 * validation. Kept free of simulator headers so the self-test links
 * nothing but this and the span tree.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench
{

/** Median of @p values (mean of the two middle ones for even sizes);
 *  0 for an empty input. */
double median(std::vector<double> values);

/** Samples strictly beyond the nearest-rank @p permille percentile of
 *  @p n samples (permille: 500 = p50, 900 = p90, 990 = p99). */
std::size_t samplesBeyond(std::size_t n, unsigned permille);

/**
 * The reporting rule: the highest percentile among @p candidates
 * (per-mille values) that has at least @p min_beyond samples beyond
 * it. Returns 0 when none qualifies.
 */
unsigned highestReportablePermille(std::size_t n,
                                   const std::vector<unsigned> &candidates,
                                   std::size_t min_beyond = 10);

/** Nearest-rank percentile of @p values; 0 for an empty input. */
double percentile(std::vector<double> values, unsigned permille);

/** failed / attempted; attempted must be at least 1. */
double failureShare(std::uint64_t failed, std::uint64_t attempted);

/** A metric name the result format accepts: starts with a letter or
 *  digit, at most 64 of [A-Za-z0-9_.-]. */
bool validMetricName(std::string_view name);

/** A unit the result format accepts: 1 to 16 of [A-Za-z0-9_/%.-]. */
bool validUnit(std::string_view unit);

/**
 * Order-independent digest of named results: each (label, stats) pair
 * renders as one line per statistic ("label name=value" with the value
 * printed exactly), the lines are sorted, and the sorted text hashed.
 */
std::uint64_t statsDigest(
    const std::vector<std::pair<std::string,
                                std::vector<std::pair<std::string, double>>>>
        &results);

} // namespace perfbench

/**
 * @file
 * In-memory span tree for the traced pass.
 *
 * Each span is a node with an id, a parent, an accumulated duration
 * and a call count: repeated calls at the same place in the tree (one
 * per simulated cycle, say) fold into one node instead of one record
 * per call. A span's self time is its duration minus its children's,
 * so the time a layer spends in its own code is recovered exactly even
 * though children run inside the parent's interval. Nothing is written
 * until the pass ends.
 *
 * A span's layer is its name up to the first '.', which names one of
 * the repository's modules (cpu, common, mem, sim, trace, sample, exp).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Host nanoseconds from the steady clock. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    int id = 0;
    int parent = -1; //!< -1 for the root
    std::string name;
    std::uint64_t ns = 0;    //!< accumulated duration
    std::uint64_t calls = 0;
};

class SpanTree
{
  public:
    /** Starts with the root span (id 0) named @p root. */
    explicit SpanTree(std::string root = "run");

    static constexpr int kRoot = 0;

    /** The child of @p parent named @p name, created on first use. */
    int child(int parent, std::string_view name);

    void
    add(int id, std::uint64_t ns, std::uint64_t calls = 1)
    {
        spans_[static_cast<std::size_t>(id)].ns += ns;
        spans_[static_cast<std::size_t>(id)].calls += calls;
    }

    /** Duration minus the children's durations (never negative). */
    std::uint64_t selfNs(int id) const;

    /** Fold @p other in: spans match by their path from the root. */
    void merge(const SpanTree &other);

    /** Self time per layer, the root excluded. */
    std::map<std::string, std::uint64_t> layerSelfNs() const;

    /** Total duration of spans named @p name, wherever they sit. */
    std::uint64_t nsOf(std::string_view name) const;

    /** Share of the root's duration covered by non-root self time. */
    double coverage() const;

    const std::vector<Span> &spans() const { return spans_; }

    /** JSON array of {id, parent, name, ns, calls, self_ns}. */
    std::string toJson() const;

  private:
    std::vector<Span> spans_;
};

/** Layer of a span name: the part before the first '.'. */
std::string layerOf(std::string_view name);

/** Times one call into @p id of @p tree. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTree &tree, int id) : tree_(tree), id_(id) {}
    ~ScopedSpan() { tree_.add(id_, nowNs() - start_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTree &tree_;
    int id_;
    std::uint64_t start_ = nowNs();
};

} // namespace perfbench

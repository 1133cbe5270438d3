/**
 * @file
 * Architectural checkpoints for interval sampling.
 *
 * A checkpoint stores, for every detailed window of a sampled run, the
 * end-of-warming architectural state (cache tags at all levels, TLB
 * entries, SPB detector registers — see warm.hh for what functional
 * warming covers) plus the recorded uop stream the window executes.
 * Because that state is policy-independent by construction, one
 * checkpoint warms an entire SB-policy sweep: the first run warms live
 * and writes the file, every later run replays the windows without
 * touching the trace decoder at all.
 *
 * The file is keyed by an identity string (workload, seed, run budget,
 * sample spec, cache/TLB/SPB geometry — everything warm state depends
 * on, and nothing it does not, such as the SB policy). A mismatched,
 * truncated or unreadable file is treated as absent: the run falls
 * back to live warming and rewrites it; so does one whose counts or
 * frames could not have been written for the configured geometry.
 * Writes go to a temporary file followed by an atomic rename, so
 * concurrent sweep jobs racing on the same path each produce a
 * complete, identical file.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sample/warm.hh"

namespace spburst::sample
{

/** Shapes of the warmed structures a loaded checkpoint must fit. */
struct WarmShape
{
    CacheGeometry l1;
    CacheGeometry l2;
    CacheGeometry l3;
    std::uint32_t tlbEntries = 0;
};

/** On-disk warm-state checkpoint: identity + one entry per window. */
struct Checkpoint
{
    std::string identity;
    std::vector<WindowSnapshot> windows;
    /** Uops functionally warmed by the writing run (throughput info). */
    std::uint64_t warmedUops = 0;

    /** Serialize to @p path via temp file + atomic rename; fatal on
     *  I/O errors (a broken checkpoint path is a config error). */
    void save(const std::string &path) const;

    /**
     * Load @p path into @p out if it exists, parses, its identity
     * equals @p identity and its state fits @p shape. Counts are
     * bounded by the bytes left in the file before anything is sized
     * from them; a tag frame must be valid, in range, index-ascending
     * and in the set its tag maps to; a TLB entry must be in range.
     * @return True on success; false (out untouched or partially
     *         filled, caller must discard) when absent, mismatched or
     *         corrupt.
     */
    static bool load(const std::string &path,
                     const std::string &identity, const WarmShape &shape,
                     Checkpoint &out);
};

} // namespace spburst::sample

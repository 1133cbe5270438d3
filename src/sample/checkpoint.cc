#include "sample/checkpoint.hh"

#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace spburst::sample
{

namespace
{

constexpr char kMagic[8] = {'S', 'P', 'B', 'S', 'M', 'P', '0', '1'};

// ---- little-endian primitive writers/readers ------------------------

void
putU64(std::FILE *f, std::uint64_t v)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    std::fwrite(b, 1, sizeof(b), f);
}

void
putU32(std::FILE *f, std::uint32_t v)
{
    unsigned char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    std::fwrite(b, 1, sizeof(b), f);
}

void
putU8(std::FILE *f, std::uint8_t v)
{
    std::fwrite(&v, 1, 1, f);
}

bool
getU64(std::FILE *f, std::uint64_t &v)
{
    unsigned char b[8];
    if (std::fread(b, 1, sizeof(b), f) != sizeof(b))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return true;
}

bool
getU32(std::FILE *f, std::uint32_t &v)
{
    unsigned char b[4];
    if (std::fread(b, 1, sizeof(b), f) != sizeof(b))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return true;
}

bool
getU8(std::FILE *f, std::uint8_t &v)
{
    return std::fread(&v, 1, 1, f) == 1;
}

// ---- bounds on untrusted counts -------------------------------------

// Smallest encoded size of each counted item, so a count read from the
// file can be checked against the bytes still in it before it sizes an
// allocation.
constexpr std::uint64_t kFrameBytes = 4 + 8 + 1 + 8;
constexpr std::uint64_t kTlbEntryBytes = 4 + 8 + 8;
constexpr std::uint64_t kUopBytes = 8 + 8 + 7;
constexpr std::uint64_t kCacheMinBytes = 8 + 4;
constexpr std::uint64_t kWindowMinBytes =
    8 + 3 * kCacheMinBytes + (8 + 4) + (8 + 8 + 4 + 4 + 4 + 8) + 4;

/** True if @p n items of at least @p each bytes fit in what is left of
 *  @p f, a file of @p size bytes. */
bool
countFits(std::FILE *f, long size, std::uint32_t n, std::uint64_t each)
{
    const long at = std::ftell(f);
    return at >= 0 && at <= size &&
           n * each <= static_cast<std::uint64_t>(size - at);
}

/** True if @p fr can follow a frame at index @p next - 1 in a snapshot
 *  of cache @p g: index in [next, frames), valid, and a block-aligned
 *  tag in the set it maps to. */
bool
frameFits(const CacheTagSnapshot::Frame &fr, std::uint64_t next,
          const CacheGeometry &g)
{
    const std::uint64_t sets = g.numSets();
    return fr.index >= next && fr.index < sets * g.ways &&
           isValid(fr.state) && blockAlign(fr.tag) == fr.tag &&
           blockNumber(fr.tag) % sets == fr.index / g.ways;
}

// ---- composite writers/readers --------------------------------------

void
putCache(std::FILE *f, const CacheTagSnapshot &c)
{
    putU64(f, c.lruClock);
    putU32(f, static_cast<std::uint32_t>(c.frames.size()));
    for (const CacheTagSnapshot::Frame &fr : c.frames) {
        putU32(f, fr.index);
        putU64(f, fr.tag);
        putU8(f, static_cast<std::uint8_t>(fr.state));
        putU64(f, fr.lastTouch);
    }
}

bool
getCache(std::FILE *f, long size, const CacheGeometry &g,
         CacheTagSnapshot &c)
{
    std::uint32_t n = 0;
    if (!getU64(f, c.lruClock) || !getU32(f, n) ||
        !countFits(f, size, n, kFrameBytes))
        return false;
    c.frames.resize(n);
    std::uint64_t next = 0;
    for (CacheTagSnapshot::Frame &fr : c.frames) {
        std::uint8_t state = 0;
        if (!getU32(f, fr.index) || !getU64(f, fr.tag) ||
            !getU8(f, state) || !getU64(f, fr.lastTouch))
            return false;
        if (state > static_cast<std::uint8_t>(CohState::Modified))
            return false;
        fr.state = static_cast<CohState>(state);
        if (!frameFits(fr, next, g))
            return false;
        next = fr.index + 1ULL;
    }
    return true;
}

void
putWindow(std::FILE *f, const WindowSnapshot &w)
{
    putU64(f, w.startUop);
    putCache(f, w.l1);
    putCache(f, w.l2);
    putCache(f, w.l3);
    putU64(f, w.tlb.useClock);
    putU32(f, static_cast<std::uint32_t>(w.tlb.entries.size()));
    for (const TlbSnapshot::Entry &e : w.tlb.entries) {
        putU32(f, e.index);
        putU64(f, e.page);
        putU64(f, e.lastUse);
    }
    putU64(f, w.detector.lastBlock);
    putU64(f, w.detector.lastAddr);
    putU32(f, w.detector.satCounter);
    putU32(f, w.detector.backwardCounter);
    putU32(f, w.detector.storeCount);
    putU64(f, w.detector.windowBytes);
    putU32(f, static_cast<std::uint32_t>(w.uops.size()));
    for (const MicroOp &op : w.uops) {
        putU64(f, op.addr);
        putU64(f, op.pc);
        putU8(f, static_cast<std::uint8_t>(op.cls));
        putU8(f, static_cast<std::uint8_t>(op.region));
        putU8(f, op.size);
        putU8(f, op.srcDist1);
        putU8(f, op.srcDist2);
        putU8(f, op.mispredicted ? 1 : 0);
        putU8(f, op.hasDest ? 1 : 0);
    }
}

bool
getWindow(std::FILE *f, long size, const WarmShape &shape,
          WindowSnapshot &w)
{
    if (!getU64(f, w.startUop) || !getCache(f, size, shape.l1, w.l1) ||
        !getCache(f, size, shape.l2, w.l2) ||
        !getCache(f, size, shape.l3, w.l3))
        return false;
    std::uint32_t n = 0;
    if (!getU64(f, w.tlb.useClock) || !getU32(f, n) ||
        !countFits(f, size, n, kTlbEntryBytes))
        return false;
    w.tlb.entries.resize(n);
    for (TlbSnapshot::Entry &e : w.tlb.entries) {
        if (!getU32(f, e.index) || !getU64(f, e.page) ||
            !getU64(f, e.lastUse))
            return false;
        if (e.index >= shape.tlbEntries)
            return false;
    }
    std::uint32_t sat = 0, back = 0, count = 0;
    if (!getU64(f, w.detector.lastBlock) ||
        !getU64(f, w.detector.lastAddr) || !getU32(f, sat) ||
        !getU32(f, back) || !getU32(f, count) ||
        !getU64(f, w.detector.windowBytes))
        return false;
    w.detector.satCounter = sat;
    w.detector.backwardCounter = back;
    w.detector.storeCount = count;
    if (!getU32(f, n) || !countFits(f, size, n, kUopBytes))
        return false;
    w.uops.resize(n);
    for (MicroOp &op : w.uops) {
        std::uint8_t cls = 0, region = 0, mispred = 0, has_dest = 0;
        if (!getU64(f, op.addr) || !getU64(f, op.pc) ||
            !getU8(f, cls) || !getU8(f, region) || !getU8(f, op.size) ||
            !getU8(f, op.srcDist1) || !getU8(f, op.srcDist2) ||
            !getU8(f, mispred) || !getU8(f, has_dest))
            return false;
        if (cls >= kNumOpClasses || region >= kNumRegions)
            return false;
        op.cls = static_cast<OpClass>(cls);
        op.region = static_cast<Region>(region);
        op.mispredicted = mispred != 0;
        op.hasDest = has_dest != 0;
    }
    return true;
}

} // namespace

void
Checkpoint::save(const std::string &path) const
{
    // Unique-per-writer temp name: concurrent sweep jobs racing on one
    // checkpoint path each write a private file, then atomically
    // rename. Every racer writes identical bytes (the state is
    // policy-independent), so whichever rename lands last is fine.
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%p",
                  static_cast<const void *>(&suffix[0]));
    const std::string tmp = path + suffix;
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        SPB_FATAL("cannot write checkpoint temp file '%s'", tmp.c_str());
    std::fwrite(kMagic, 1, sizeof(kMagic), f);
    putU32(f, static_cast<std::uint32_t>(identity.size()));
    std::fwrite(identity.data(), 1, identity.size(), f);
    putU64(f, warmedUops);
    putU32(f, static_cast<std::uint32_t>(windows.size()));
    for (const WindowSnapshot &w : windows)
        putWindow(f, w);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) {
        std::remove(tmp.c_str());
        SPB_FATAL("I/O error writing checkpoint '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        SPB_FATAL("cannot rename checkpoint into place at '%s'",
                  path.c_str());
    }
}

bool
Checkpoint::load(const std::string &path, const std::string &identity,
                 const WarmShape &shape, Checkpoint &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    bool ok = false;
    do {
        if (std::fseek(f, 0, SEEK_END) != 0)
            break;
        const long size = std::ftell(f);
        if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0)
            break;
        char magic[8];
        if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
            std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
            break;
        std::uint32_t id_len = 0;
        if (!getU32(f, id_len) || id_len > 4096)
            break;
        std::string id(id_len, '\0');
        if (std::fread(id.data(), 1, id_len, f) != id_len ||
            id != identity)
            break;
        std::uint32_t window_count = 0;
        if (!getU64(f, out.warmedUops) || !getU32(f, window_count) ||
            !countFits(f, size, window_count, kWindowMinBytes))
            break;
        out.identity = id;
        out.windows.resize(window_count);
        bool windows_ok = true;
        for (WindowSnapshot &w : out.windows) {
            if (!getWindow(f, size, shape, w)) {
                windows_ok = false;
                break;
            }
        }
        ok = windows_ok;
    } while (false);
    std::fclose(f);
    return ok;
}

} // namespace spburst::sample

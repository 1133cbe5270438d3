#include "trace/champsim/format.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace spburst::champsim
{

namespace
{

std::uint64_t
loadLe64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
storeLe64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

} // namespace

void
decodeRecord(const unsigned char (&buf)[kRecordBytes], Record &rec)
{
    if constexpr (std::endian::native == std::endian::little)
        std::memcpy(&rec, buf, kRecordBytes);
    else
        decodeRecordPortable(buf, rec);
}

void
encodeRecord(const Record &rec, unsigned char (&buf)[kRecordBytes])
{
    if constexpr (std::endian::native == std::endian::little)
        std::memcpy(buf, &rec, kRecordBytes);
    else
        encodeRecordPortable(rec, buf);
}

void
decodeRecordPortable(const unsigned char (&buf)[kRecordBytes],
                     Record &rec)
{
    rec.ip = loadLe64(buf);
    rec.isBranch = buf[8];
    rec.branchTaken = buf[9];
    for (int i = 0; i < kNumDestRegs; ++i)
        rec.destRegs[i] = buf[10 + i];
    for (int i = 0; i < kNumSrcRegs; ++i)
        rec.srcRegs[i] = buf[12 + i];
    for (int i = 0; i < kNumDestMem; ++i)
        rec.destMem[i] = loadLe64(buf + 16 + 8 * i);
    for (int i = 0; i < kNumSrcMem; ++i)
        rec.srcMem[i] = loadLe64(buf + 32 + 8 * i);
}

void
encodeRecordPortable(const Record &rec,
                     unsigned char (&buf)[kRecordBytes])
{
    storeLe64(buf, rec.ip);
    buf[8] = rec.isBranch;
    buf[9] = rec.branchTaken;
    for (int i = 0; i < kNumDestRegs; ++i)
        buf[10 + i] = rec.destRegs[i];
    for (int i = 0; i < kNumSrcRegs; ++i)
        buf[12 + i] = rec.srcRegs[i];
    for (int i = 0; i < kNumDestMem; ++i)
        storeLe64(buf + 16 + 8 * i, rec.destMem[i]);
    for (int i = 0; i < kNumSrcMem; ++i)
        storeLe64(buf + 32 + 8 * i, rec.srcMem[i]);
}

Writer::Writer(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        SPB_FATAL("cannot create trace file '%s'", path.c_str());
}

Writer::~Writer()
{
    close();
}

void
Writer::append(const Record &rec)
{
    SPB_ASSERT(file_ != nullptr, "append to a closed trace writer");
    unsigned char buf[kRecordBytes];
    encodeRecord(rec, buf);
    if (std::fwrite(buf, 1, kRecordBytes, file_) != kRecordBytes)
        SPB_FATAL("short write to trace file '%s'", path_.c_str());
    ++written_;
}

void
Writer::close()
{
    if (file_ != nullptr) {
        if (std::fclose(file_) != 0)
            SPB_FATAL("error closing trace file '%s'", path_.c_str());
        file_ = nullptr;
    }
}

} // namespace spburst::champsim

/**
 * @file
 * The ChampSim binary instruction-trace format.
 *
 * ChampSim (the de-facto trace-driven harness of the prefetching
 * literature — DSPatch, MANA and Entangling all evaluate on it) stores
 * one fixed-size 64-byte `input_instr` record per retired x86
 * instruction:
 *
 *   offset  0  u64  ip                         static instruction pointer
 *   offset  8  u8   is_branch
 *   offset  9  u8   branch_taken
 *   offset 10  u8   destination_registers[2]   0 = unused slot
 *   offset 12  u8   source_registers[4]        0 = unused slot
 *   offset 16  u64  destination_memory[2]      0 = unused slot
 *   offset 32  u64  source_memory[4]           0 = unused slot
 *
 * (The two trailing u64 arrays are naturally 8-byte aligned, so the
 * on-disk layout equals the packed C struct — 64 bytes, no padding.)
 * Integers are little-endian. Register numbers are x86 Pin register
 * ids; three of them are special-cased by ChampSim's branch-kind
 * heuristic and reproduced here.
 *
 * This header defines the record, its (endian-explicit) binary codec,
 * and a writer used by tests and the `spburst_tracegen` fixture
 * generator. Decoding from files (plain, .gz, .xz) lives in reader.hh;
 * cracking records into MicroOps lives in crack.hh.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

namespace spburst::champsim
{

/** Register-slot counts of the classic ChampSim input_instr. */
inline constexpr int kNumDestRegs = 2;
inline constexpr int kNumSrcRegs = 4;
inline constexpr int kNumDestMem = 2;
inline constexpr int kNumSrcMem = 4;

/** On-disk record size in bytes. */
inline constexpr std::size_t kRecordBytes = 64;

/** Pin register ids ChampSim's branch heuristic special-cases. */
inline constexpr std::uint8_t kRegStackPointer = 6;
inline constexpr std::uint8_t kRegFlags = 25;
inline constexpr std::uint8_t kRegInstructionPointer = 26;

/** One decoded trace record (host-endian). */
struct Record
{
    std::uint64_t ip = 0;
    std::uint8_t isBranch = 0;
    std::uint8_t branchTaken = 0;
    std::uint8_t destRegs[kNumDestRegs] = {};
    std::uint8_t srcRegs[kNumSrcRegs] = {};
    std::uint64_t destMem[kNumDestMem] = {};
    std::uint64_t srcMem[kNumSrcMem] = {};
};

// The in-memory Record is the on-disk layout, so a little-endian host
// decodes and encodes with one memcpy.
static_assert(sizeof(Record) == kRecordBytes &&
                  offsetof(Record, isBranch) == 8 &&
                  offsetof(Record, branchTaken) == 9 &&
                  offsetof(Record, destRegs) == 10 &&
                  offsetof(Record, srcRegs) == 12 &&
                  offsetof(Record, destMem) == 16 &&
                  offsetof(Record, srcMem) == 32,
              "Record must mirror the 64-byte on-disk layout");
static_assert(std::is_trivially_copyable_v<Record>);

/** Decode one 64-byte on-disk record (little-endian) into @p rec. */
void decodeRecord(const unsigned char (&buf)[kRecordBytes], Record &rec);

/** Encode @p rec into the 64-byte on-disk form (little-endian). */
void encodeRecord(const Record &rec, unsigned char (&buf)[kRecordBytes]);

/** Byte-wise, host-endian-independent decodeRecord: the big-endian
 *  path, and the oracle the little-endian memcpy path is tested
 *  against. */
void decodeRecordPortable(const unsigned char (&buf)[kRecordBytes],
                          Record &rec);

/** Byte-wise encodeRecord (see decodeRecordPortable). */
void encodeRecordPortable(const Record &rec,
                          unsigned char (&buf)[kRecordBytes]);

/**
 * Writes records to an uncompressed trace file. Used by unit tests and
 * the spburst_tracegen tool; compress the result with `gzip`/`xz` to
 * exercise the compressed reader paths.
 */
class Writer
{
  public:
    /** Opens (truncates) @p path; fatal if it cannot be created. */
    explicit Writer(const std::string &path);
    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    void append(const Record &rec);

    /** Flush and close early (destructor does the same). */
    void close();

    std::uint64_t written() const { return written_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint64_t written_ = 0;
};

} // namespace spburst::champsim

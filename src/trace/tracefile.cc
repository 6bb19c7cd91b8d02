#include "trace/tracefile.hh"

#include <cstring>

#include "common/logging.hh"

namespace unison {

namespace {

constexpr char kMagic[4] = {'U', 'C', 'T', 'R'};

struct PackedHeader
{
    char magic[4];
    std::uint32_t version;
    std::uint32_t numCores;
    std::uint32_t pad;
};

#pragma pack(push, 1)
struct PackedRecord
{
    std::uint64_t addr;
    std::uint64_t pc;
    std::uint16_t instrsBefore;
    std::uint8_t core;
    std::uint8_t flags;
};
#pragma pack(pop)

static_assert(sizeof(PackedHeader) == 16, "header layout drifted");
static_assert(sizeof(PackedRecord) == 20, "record layout drifted");

} // namespace

TraceWriter::TraceWriter(const std::string &path, int num_cores)
{
    UNISON_ASSERT(num_cores >= 1 && num_cores <= 255,
                  "bad core count ", num_cores);
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        fatal("cannot open trace file '", path, "' for writing");

    PackedHeader hdr{};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kTraceVersion;
    hdr.numCores = static_cast<std::uint32_t>(num_cores);
    if (std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1)
        fatal("failed to write trace header to '", path, "'");
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::close()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
TraceWriter::write(const MemoryAccess &access)
{
    UNISON_ASSERT(file_ != nullptr, "write to closed trace");
    PackedRecord rec{};
    rec.addr = access.addr;
    rec.pc = access.pc;
    rec.instrsBefore = access.instrsBefore;
    // The on-disk record keeps an 8-bit core id (the constructor caps
    // capture at 255 cores); in-memory core ids are wider.
    rec.core = static_cast<std::uint8_t>(access.core);
    rec.flags = access.isWrite ? 1 : 0;
    if (std::fwrite(&rec, sizeof(rec), 1, file_) != 1)
        fatal("failed to append trace record");
    ++count_;
}

TraceReader::TraceReader(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr)
        fatal("cannot open trace file '", path, "'");

    PackedHeader hdr{};
    if (std::fread(&hdr, sizeof(hdr), 1, file_) != 1)
        fatal("trace file '", path, "' is truncated");
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        fatal("'", path, "' is not a Unison trace file");
    if (hdr.version != kTraceVersion)
        fatal("trace version ", hdr.version, " unsupported (expected ",
              kTraceVersion, ")");
    if (hdr.numCores < 1 || hdr.numCores > 255)
        fatal("trace declares invalid core count ", hdr.numCores);
    numCores_ = static_cast<int>(hdr.numCores);
    buffers_.resize(numCores_);
}

TraceReader::~TraceReader()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

std::size_t
TraceReader::readChunk()
{
    if (exhausted_)
        return 0;
    PackedRecord raw[kTraceReadChunk];
    const std::size_t got =
        std::fread(raw, sizeof(PackedRecord), kTraceReadChunk, file_);
    if (got < kTraceReadChunk)
        exhausted_ = true;
    for (std::size_t i = 0; i < got; ++i) {
        const PackedRecord &rec = raw[i];
        if (rec.core >= numCores_)
            fatal("trace record core ", static_cast<int>(rec.core),
                  " out of range (trace has ", numCores_, " cores)");
        MemoryAccess acc;
        acc.addr = rec.addr;
        acc.pc = rec.pc;
        acc.instrsBefore = rec.instrsBefore;
        acc.core = rec.core;
        acc.isWrite = (rec.flags & 1) != 0;
        buffers_[rec.core].push(acc);
    }
    count_ += got;
    return got;
}

bool
TraceReader::next(int core, MemoryAccess &out)
{
    UNISON_ASSERT(core >= 0 && core < numCores_,
                  "core ", core, " out of range");
    AccessChunkBuffer &buf = buffers_[core];
    while (buf.empty()) {
        if (readChunk() == 0)
            return false;
    }
    out = buf.front();
    buf.popFront();
    return true;
}

} // namespace unison

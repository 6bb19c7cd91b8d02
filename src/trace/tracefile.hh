/**
 * @file
 * Binary trace-file format so users can run the simulator on their own
 * captured traces instead of the synthetic workloads.
 *
 * Layout (little-endian):
 *   header : magic "UCTR" (4B) | version u32 | numCores u32 | pad u32
 *   record : addr u64 | pc u64 | instrsBefore u16 | core u8 | flags u8
 * flags bit 0 = write.
 */

#ifndef UNISON_TRACE_TRACEFILE_HH
#define UNISON_TRACE_TRACEFILE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "trace/access.hh"

namespace unison {

/** Current trace format version. */
constexpr std::uint32_t kTraceVersion = 1;

/** Records decoded from the file per fread (batched I/O). */
constexpr std::size_t kTraceReadChunk = 4096;

/**
 * Contiguous FIFO of parked records for one core: a flat vector plus a
 * consume cursor, compacted on refill. Replaces the former
 * deque-of-deques, whose per-node allocation and pointer-chasing
 * dominated the replay hot path.
 */
class AccessChunkBuffer
{
  public:
    bool empty() const { return head_ == data_.size(); }
    std::size_t size() const { return data_.size() - head_; }

    const MemoryAccess &front() const { return data_[head_]; }
    void popFront() { ++head_; }

    /** Contiguous view of the pending records. */
    const MemoryAccess *pending() const { return data_.data() + head_; }

    /** Drop `n` pending records (n <= size()). */
    void consume(std::size_t n) { head_ += n; }

    void
    push(const MemoryAccess &access)
    {
        compact();
        data_.push_back(access);
    }

  private:
    /** Reclaim the consumed prefix once it dominates the storage. */
    void
    compact()
    {
        if (head_ == data_.size()) {
            data_.clear();
            head_ = 0;
        } else if (head_ >= 4096 && head_ * 2 >= data_.size()) {
            data_.erase(data_.begin(),
                        data_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    std::vector<MemoryAccess> data_;
    std::size_t head_ = 0;
};

/** Streaming writer for the binary trace format. */
class TraceWriter
{
  public:
    /** Open (truncate) `path` and write the header. Fatal on error. */
    TraceWriter(const std::string &path, int num_cores);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void write(const MemoryAccess &access);

    /** Records written so far. */
    std::uint64_t count() const { return count_; }

    /** Flush and close early (also done by the destructor). */
    void close();

  private:
    std::FILE *file_ = nullptr;
    std::uint64_t count_ = 0;
};

/** Streaming reader; implements AccessSource so it plugs into System. */
class TraceReader final : public AccessSource
{
  public:
    /** Open `path` and validate the header. Fatal on error. */
    explicit TraceReader(const std::string &path);
    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Next record for `core`. Records of other cores encountered while
     * scanning forward are buffered, so any interleaving in the file
     * is supported.
     */
    bool next(int core, MemoryAccess &out) override;

    /** Batched variant: decodes the file in kTraceReadChunk chunks and
     *  hands out contiguous spans per core. */
    std::size_t nextBatch(int core, MemoryAccess *out,
                          std::size_t max) override;

    int numCores() const override { return numCores_; }

    std::uint64_t recordsRead() const { return count_; }

  private:
    /**
     * Read and decode up to kTraceReadChunk records, parking each in
     * its core's buffer. Returns the number of records decoded (0 at
     * end of file).
     */
    std::size_t readChunk();

    std::FILE *file_ = nullptr;
    int numCores_ = 0;
    std::uint64_t count_ = 0;
    bool exhausted_ = false;
    std::vector<AccessChunkBuffer> buffers_;
};

} // namespace unison

#endif // UNISON_TRACE_TRACEFILE_HH

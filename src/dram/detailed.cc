#include "dram/detailed.hh"

#include <algorithm>

#include "common/logging.hh"

namespace unison {
namespace {

/** Power-of-two occupancy bucket: 0, 1, [2,4), [4,8), ... */
int
occupancyBucket(int size)
{
    int bucket = 0;
    while (size > 0 && bucket < MemoryQueueStats::kOccupancyBuckets - 1) {
        ++bucket;
        size >>= 1;
    }
    return bucket;
}

} // namespace

void
DetailedChannel::drainAt(int idx, Cycle now)
{
    const WriteEntry entry = wq_[idx];
    for (int i = idx; i + 1 < wqSize_; ++i)
        wq_[i] = wq_[i + 1];
    --wqSize_;
    cmd_.access(static_cast<int>(entry.bank), entry.row, entry.bytes,
                true, now);
    ++qstats_.drainedWrites;
}

void
DetailedChannel::drainOne(Cycle now)
{
    UNISON_ASSERT(wqSize_ > 0, "drain from an empty write queue");
    // FR-FCFS pick: the oldest write whose row is currently open in
    // its bank, falling back to the oldest write outright.
    int pick = 0;
    for (int i = 0; i < wqSize_; ++i) {
        const WriteEntry &entry = wq_[i];
        if (cmd_.openRow(static_cast<int>(entry.bank)) == entry.row) {
            pick = i;
            break;
        }
    }
    if (pick != 0)
        ++qstats_.frfcfsReorders;
    drainAt(pick, now);
}

std::uint32_t
DetailedChannel::maxQueuedBypasses() const
{
    std::uint32_t max_bypasses = 0;
    for (int i = 0; i < wqSize_; ++i)
        max_bypasses = std::max(max_bypasses, wq_[i].bypasses);
    return max_bypasses;
}

DramAccessTiming
DetailedChannel::access(int bank_idx, std::uint64_t row,
                        std::uint32_t bytes, bool is_write, Cycle earliest)
{
    UNISON_ASSERT(bank_idx >= 0 && bank_idx < cmd_.numBanks(),
                  "bank ", bank_idx, " out of range");
    UNISON_ASSERT(bytes > 0, "zero-byte DRAM access");

    if (is_write) {
        // Posted write: accepted into the queue now, performed later.
        // A full queue forces a single drain to make room; crossing
        // the high watermark drains down to the low one.
        if (wqSize_ == kWriteQueueDepth) {
            ++qstats_.writeDrains;
            drainOne(earliest);
        }
        WriteEntry &entry = wq_[wqSize_++];
        entry.row = row;
        entry.bank = static_cast<std::uint32_t>(bank_idx);
        entry.bytes = bytes;
        entry.bypasses = 0;
        ++qstats_.occupancy[occupancyBucket(wqSize_)];
        if (wqSize_ >= kWriteHighWatermark) {
            ++qstats_.writeDrains;
            while (wqSize_ > kWriteLowWatermark)
                drainOne(earliest);
        }
        DramAccessTiming result;
        result.completion = earliest;
        return result;
    }

    // Read priority: the read bypasses every queued write -- unless a
    // write has hit the starvation cap, in which case it retires
    // first. This bounds write latency without giving up read-first
    // scheduling. Every queued write gains one bypass per read and
    // removals keep queue order, so the oldest write, wq_[0], always
    // carries the largest count: checking it alone is the whole test.
    for (int i = 0; i < wqSize_; ++i)
        ++wq_[i].bypasses;
    while (wqSize_ > 0 &&
           wq_[0].bypasses >= static_cast<std::uint32_t>(kStarvationCap)) {
        ++qstats_.starvationDrains;
        drainAt(0, earliest);
    }
    return cmd_.access(bank_idx, row, bytes, false, earliest);
}

MemoryQueueStats
DetailedBackend::queueStats() const
{
    MemoryQueueStats agg;
    for (const DetailedChannel &ch : channels_)
        agg.add(ch.queueStats());
    return agg;
}

} // namespace unison

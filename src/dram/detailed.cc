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

DetailedChannel::DetailedChannel(const DramTimingCpu &timing,
                                 int num_banks)
    : timing_(timing), banks_(num_banks)
{
    nextRefreshAt_ = timing_.refi; // 0 disables refresh
    UNISON_ASSERT(num_banks >= 1, "channel needs at least one bank");
}

Cycle
DetailedChannel::activateAllowedAt(Cycle t) const
{
    // Identical to DramChannel::activateAllowedAt, including the
    // activate-count guards on the tRRD/tFAW gates.
    Cycle allowed = t;
    if (actCount_ >= 1)
        allowed = std::max(allowed, lastActivate_ + timing_.rrd);
    if (actCount_ >= 4)
        allowed =
            std::max(allowed, actWindow_[actWindowIdx_] + timing_.faw);
    return allowed;
}

void
DetailedChannel::noteActivate(Cycle t)
{
    lastActivate_ = t;
    actWindow_[actWindowIdx_] = t;
    actWindowIdx_ = (actWindowIdx_ + 1) % 4;
    ++actCount_;
    ++stats_.activations;
}

Cycle
DetailedChannel::applyRefresh(Cycle t)
{
    if (timing_.refi == 0 || nextRefreshAt_ > t)
        return t;
    // Closed-form catch-up, as in DramChannel::applyRefresh; the
    // rank-wide refresh closes every bank's row.
    const std::uint64_t elapsed = (t - nextRefreshAt_) / timing_.refi + 1;
    const Cycle last_window = nextRefreshAt_ + (elapsed - 1) * timing_.refi;
    refreshBusyUntil_ = last_window + timing_.rfc;
    nextRefreshAt_ = last_window + timing_.refi;
    stats_.refreshes += elapsed;
    for (BankState &bank : banks_) {
        bank.openRow = kNoRow;
        bank.busyUntil = std::max(bank.busyUntil, refreshBusyUntil_);
    }
    return std::max(t, refreshBusyUntil_);
}

DramAccessTiming
DetailedChannel::performCommand(int bank_idx, std::uint64_t row,
                                std::uint32_t bytes, bool is_write,
                                Cycle now)
{
    BankState &bank = banks_[bank_idx];
    const Cycle start = applyRefresh(std::max(now, bank.busyUntil));

    DramAccessTiming result;
    Cycle col_ready;

    if (bank.openRow == row) {
        result.rowHit = true;
        ++stats_.rowHits;
        col_ready = start;
    } else if (bank.openRow == kNoRow) {
        ++stats_.rowEmpty;
        const Cycle act = activateAllowedAt(
            std::max(start, bank.activatedAt + timing_.rc));
        noteActivate(act);
        bank.activatedAt = act;
        col_ready = act + timing_.rcd;
        bank.openRow = row;
    } else {
        ++stats_.rowConflicts;
        const Cycle pre = std::max(
            {start, bank.activatedAt + timing_.ras, bank.prechargeOkAt});
        const Cycle act = activateAllowedAt(
            std::max(pre + timing_.rp, bank.activatedAt + timing_.rc));
        noteActivate(act);
        bank.activatedAt = act;
        col_ready = act + timing_.rcd;
        bank.openRow = row;
    }

    Cycle bus_ready = busFreeAt_;
    if (!is_write && lastBurstWasWrite_)
        bus_ready += timing_.wtr;
    const Cycle data_start = std::max(col_ready + timing_.cas, bus_ready);
    const Cycle burst = timing_.burstCycles(bytes);
    const Cycle data_end = data_start + burst;
    busFreeAt_ = data_end;
    lastBurstWasWrite_ = is_write;
    bank.busyUntil = col_ready + burst;

    if (is_write) {
        bank.prechargeOkAt = data_end + timing_.wr;
        ++stats_.writes;
        stats_.bytesWritten += bytes;
    } else {
        bank.prechargeOkAt = col_ready + timing_.rtp;
        ++stats_.reads;
        stats_.bytesRead += bytes;
    }

    result.completion = data_end;
    return result;
}

void
DetailedChannel::removeQueued(int idx)
{
    for (int i = idx; i + 1 < wqSize_; ++i)
        wq_[i] = wq_[i + 1];
    --wqSize_;
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
        if (banks_[entry.bank].openRow == entry.row) {
            pick = i;
            break;
        }
    }
    if (pick != 0)
        ++qstats_.frfcfsReorders;
    const WriteEntry entry = wq_[pick];
    removeQueued(pick);
    performCommand(static_cast<int>(entry.bank), entry.row, entry.bytes,
                   true, now);
    ++qstats_.drainedWrites;
}

void
DetailedChannel::drainOldest(Cycle now)
{
    const WriteEntry entry = wq_[0];
    removeQueued(0);
    performCommand(static_cast<int>(entry.bank), entry.row, entry.bytes,
                   true, now);
    ++qstats_.drainedWrites;
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
    UNISON_ASSERT(bank_idx >= 0 &&
                      bank_idx < static_cast<int>(banks_.size()),
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
        drainOldest(earliest);
    }
    return performCommand(bank_idx, row, bytes, false, earliest);
}

void
DetailedChannel::saveState(StateWriter &out) const
{
    out.podVector(banks_);
    out.pod(busFreeAt_);
    out.pod(lastBurstWasWrite_);
    out.pod(lastActivate_);
    out.pod(nextRefreshAt_);
    out.pod(refreshBusyUntil_);
    out.pod(actWindow_);
    out.pod(actWindowIdx_);
    out.pod(actCount_);
    out.pod(wq_);
    out.pod(wqSize_);
}

void
DetailedChannel::loadState(StateReader &in)
{
    in.podVectorExact(banks_);
    in.pod(busFreeAt_);
    in.pod(lastBurstWasWrite_);
    in.pod(lastActivate_);
    in.pod(nextRefreshAt_);
    in.pod(refreshBusyUntil_);
    in.pod(actWindow_);
    in.pod(actWindowIdx_);
    in.pod(actCount_);
    in.pod(wq_);
    in.pod(wqSize_);
}

DetailedBackend::DetailedBackend(const DramOrganization &org,
                                 const DramTimingParams &params)
    : MemoryBackend(org, params),
      chDiv_(static_cast<std::uint64_t>(org.numChannels)),
      bankDiv_(static_cast<std::uint64_t>(org.banksPerChannel))
{
    channels_.reserve(org_.numChannels);
    for (int c = 0; c < org_.numChannels; ++c)
        channels_.emplace_back(timing_, org_.banksPerChannel);
}

DramAccessTiming
DetailedBackend::rowAccess(std::uint64_t row_idx, std::uint32_t bytes,
                           bool is_write, Cycle earliest)
{
    std::uint64_t per_channel, channel, row, bank;
    chDiv_.divMod(row_idx, per_channel, channel);
    bankDiv_.divMod(per_channel, row, bank);
    return channels_[channel].access(static_cast<int>(bank), row, bytes,
                                     is_write, earliest);
}

DramPoolStats
DetailedBackend::stats() const
{
    DramPoolStats agg;
    for (const DetailedChannel &ch : channels_)
        agg.add(ch.stats());
    return agg;
}

void
DetailedBackend::resetStats()
{
    for (DetailedChannel &ch : channels_)
        ch.resetStats();
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

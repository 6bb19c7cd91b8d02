/**
 * @file
 * The memory-backend seam: every consumer of DRAM timing (fill and
 * writeback engines, the designs' stacked pools, the off-chip pool in
 * System) talks to the abstract MemoryBackend below, never to a
 * concrete timing model. Two implementations exist, both a
 * ChannelPool (below) over a different channel type:
 *
 *  - DramModule (dram.hh): the analytic open-page model. Fast, and the
 *    default -- all goldens are pinned against it.
 *  - DetailedBackend (detailed.hh): a cycle-accurate FR-FCFS controller
 *    with per-channel write queues, drain watermarks and a starvation
 *    cap. Slower; used to cross-validate the analytic model (the
 *    `validation` figure grid).
 *
 * Both share DramTimingParams/DramTimingCpu, the channel/bank/row
 * interleaving, the UNISON_DRAM_TRAFFIC_FIELDS counters, and the
 * command timing itself: each detailed channel issues its commands
 * through a DramChannel, so channel.cc holds the one copy of the bank,
 * bus, activate-window and refresh arithmetic. A design sees identical
 * organization and statistics regardless of the backend behind the
 * seam.
 */

#ifndef UNISON_DRAM_BACKEND_HH
#define UNISON_DRAM_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fastdiv.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "dram/channel.hh"
#include "dram/timing.hh"

namespace unison {

/** Aggregated statistics across a pool's channels: the same traffic
 *  field list as DramChannelStats, as plain uint64 sums. */
struct DramPoolStats
{
    UNISON_STAT_STRUCT_BODY_T(UNISON_DRAM_TRAFFIC_FIELDS, std::uint64_t)

    /** Fold one channel's counters in (field-by-field, generated from
     *  the shared list so an added counter cannot be missed here). */
#define UNISON_POOL_ADD_FIELD(T, name) name += ch.name.value();
    void
    add(const DramChannelStats &ch)
    {
        UNISON_DRAM_TRAFFIC_FIELDS(UNISON_POOL_ADD_FIELD, )
    }
#undef UNISON_POOL_ADD_FIELD

    std::uint64_t accesses() const { return reads + writes; }

    double
    rowHitRatio() const
    {
        const std::uint64_t total = rowHits + rowConflicts + rowEmpty;
        return total ? static_cast<double>(rowHits) / total : 0.0;
    }
};

/**
 * Controller-queue statistics only the detailed backend produces; the
 * fast backend reports all-zero (it has no queues). Occupancy is a
 * power-of-two histogram of the write-queue depth sampled at every
 * enqueue: bucket 0 = empty before enqueue, bucket k = [2^(k-1), 2^k).
 */
struct MemoryQueueStats
{
    static constexpr int kOccupancyBuckets = 8;

    std::uint64_t writeDrains = 0;      //!< watermark drain episodes
    std::uint64_t drainedWrites = 0;    //!< writes retired from a queue
    std::uint64_t frfcfsReorders = 0;   //!< drains that skipped oldest
    std::uint64_t starvationDrains = 0; //!< forced by the bypass cap
    std::uint64_t occupancy[kOccupancyBuckets] = {};

    void
    add(const MemoryQueueStats &other)
    {
        writeDrains += other.writeDrains;
        drainedWrites += other.drainedWrites;
        frfcfsReorders += other.frfcfsReorders;
        starvationDrains += other.starvationDrains;
        for (int i = 0; i < kOccupancyBuckets; ++i)
            occupancy[i] += other.occupancy[i];
    }

    bool
    any() const
    {
        if (writeDrains || drainedWrites || frfcfsReorders ||
            starvationDrains)
            return true;
        for (std::uint64_t bucket : occupancy) {
            if (bucket)
                return true;
        }
        return false;
    }
};

/**
 * One DRAM pool behind a pluggable timing model. Rows are interleaved
 * across channels then banks, so consecutive row indices spread over
 * the parallel resources exactly as consecutive DRAM-cache sets should
 * (Sec. III-A.6); the interleaving lives here so every backend maps a
 * row index to the same (channel, bank, row) triple.
 */
class MemoryBackend
{
  public:
    MemoryBackend(const DramOrganization &org,
                  const DramTimingParams &params);
    virtual ~MemoryBackend() = default;

    MemoryBackend(const MemoryBackend &) = delete;
    MemoryBackend &operator=(const MemoryBackend &) = delete;

    /**
     * Time an access to global row `row_idx` (cache-controlled layout,
     * used by the stacked pool).
     */
    virtual DramAccessTiming rowAccess(std::uint64_t row_idx,
                                       std::uint32_t bytes, bool is_write,
                                       Cycle earliest) = 0;

    /**
     * Time an access to the row containing byte address `addr`
     * (memory-controlled layout, used by the off-chip pool).
     */
    DramAccessTiming
    addrAccess(Addr addr, std::uint32_t bytes, bool is_write,
               Cycle earliest)
    {
        return rowAccess(rowOfAddr(addr), bytes, is_write, earliest);
    }

    /** Global row index that backs byte address `addr`. */
    std::uint64_t
    rowOfAddr(Addr addr) const
    {
        return rowBytesDiv_.div(addr);
    }

    const DramOrganization &organization() const { return org_; }
    const DramTimingCpu &timing() const { return timing_; }

    /** Sum the per-channel traffic counters. */
    virtual DramPoolStats stats() const = 0;
    virtual void resetStats() = 0;

    /** Controller-queue counters; all-zero for queueless backends. */
    virtual MemoryQueueStats queueStats() const { return {}; }

    /** Warm-state checkpoint of every channel's timing state
     *  (statistics excluded by the state_io.hh contract). */
    virtual void saveState(StateWriter &out) const = 0;
    virtual void loadState(StateReader &in) = 0;

    /** Idealized unloaded read latency for a row-buffer hit/conflict. */
    Cycle
    unloadedRowHitLatency(std::uint32_t bytes) const
    {
        return timing_.cas + timing_.burstCycles(bytes);
    }

    Cycle
    unloadedRowConflictLatency(std::uint32_t bytes) const
    {
        return timing_.rp + timing_.rcd + timing_.cas +
               timing_.burstCycles(bytes);
    }

  protected:
    DramOrganization org_;
    DramTimingCpu timing_;
    FastDiv64 rowBytesDiv_;
};

/**
 * A pool of identical channels behind the row interleaving: the one
 * implementation of the channel/bank split, the per-channel stats fold
 * and the checkpoint loop. `Channel` is DramChannel (DramModule) or
 * DetailedChannel (DetailedBackend); its constructor takes (timing,
 * banks per channel) and then the pool's extra channel arguments.
 */
template <class Channel>
class ChannelPool : public MemoryBackend
{
  public:
    DramAccessTiming
    rowAccess(std::uint64_t row_idx, std::uint32_t bytes, bool is_write,
              Cycle earliest) final
    {
        std::uint64_t per_channel, channel, row, bank;
        chDiv_.divMod(row_idx, per_channel, channel);
        bankDiv_.divMod(per_channel, row, bank);
        return channels_[channel].access(static_cast<int>(bank), row,
                                         bytes, is_write, earliest);
    }

    DramPoolStats
    stats() const final
    {
        DramPoolStats agg;
        for (const Channel &ch : channels_)
            agg.add(ch.stats());
        return agg;
    }

    void
    resetStats() final
    {
        for (Channel &ch : channels_)
            ch.resetStats();
    }

    void
    saveState(StateWriter &out) const final
    {
        for (const Channel &ch : channels_)
            ch.saveState(out);
    }

    void
    loadState(StateReader &in) final
    {
        for (Channel &ch : channels_)
            ch.loadState(in);
    }

    /** Per-channel access for the tests. */
    Channel &channel(int idx) { return channels_[idx]; }

  protected:
    template <class... ChannelArgs>
    ChannelPool(const DramOrganization &org, const DramTimingParams &params,
                ChannelArgs... channel_args)
        : MemoryBackend(org, params),
          chDiv_(static_cast<std::uint64_t>(org.numChannels)),
          bankDiv_(static_cast<std::uint64_t>(org.banksPerChannel))
    {
        channels_.reserve(org_.numChannels);
        for (int c = 0; c < org_.numChannels; ++c)
            channels_.emplace_back(timing_, org_.banksPerChannel,
                                   channel_args...);
    }

    /** By value: the per-access channel lookup is one index, not a
     *  pointer chase. */
    std::vector<Channel> channels_;

  private:
    /** Invariant-divisor splits of the row index (the channel/bank
     *  counts are runtime values, so plain '/' was a hardware divide
     *  on every access). */
    FastDiv64 chDiv_;
    FastDiv64 bankDiv_;
};

/** Construct the backend selected by `org.backend`. */
std::unique_ptr<MemoryBackend>
makeMemoryBackend(const DramOrganization &org,
                  const DramTimingParams &params);

/** Registered backend ids, in enum order ("fast", "detailed"). */
const std::vector<std::string> &memoryBackendIds();

/** Spec/CLI token for a backend kind. */
std::string memoryBackendId(MemoryBackendKind kind);

/** One-line description for --list-backends. */
std::string memoryBackendSummary(MemoryBackendKind kind);

/** Parse a spec/CLI token; returns false on unknown tokens. */
bool memoryBackendFromId(const std::string &token,
                         MemoryBackendKind &out);

} // namespace unison

#endif // UNISON_DRAM_BACKEND_HH

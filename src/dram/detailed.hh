/**
 * @file
 * The cycle-accurate FR-FCFS controller (the "detailed" MemoryBackend).
 *
 * Each channel is a bounded write queue in front of a DramChannel
 * (channel.cc, the one copy of the bank, bus, activate-window and
 * refresh arithmetic) with a strict single open row per bank
 * (open-row window 1). Writes are posted: they complete at acceptance
 * and retire later, drained in FR-FCFS order (row hits first, oldest
 * otherwise) when the queue crosses its high watermark -- draining down
 * to the low watermark -- or when a queued write has been bypassed by
 * too many reads (the starvation cap). Reads are serviced immediately,
 * ahead of queued writes, which is exactly the reordering the analytic
 * model's open-row window approximates.
 *
 * Under zero contention (one request in flight, no queued writes) a
 * read therefore takes the same cycle count here as through DramModule
 * with openRowWindow=1: both time it with the same DramChannel::access,
 * and the backend-equivalence tests pin that.
 */

#ifndef UNISON_DRAM_DETAILED_HH
#define UNISON_DRAM_DETAILED_HH

#include <array>
#include <cstdint>

#include "common/state_io.hh"
#include "dram/backend.hh"
#include "dram/channel.hh"
#include "dram/timing.hh"

namespace unison {

/** One channel of the detailed controller. */
class DetailedChannel
{
  public:
    /** Write-queue geometry (public so the invariant tests can assert
     *  against the real values). */
    static constexpr int kWriteQueueDepth = 32;
    static constexpr int kWriteHighWatermark = 24;
    static constexpr int kWriteLowWatermark = 16;
    /** A queued write bypassed by this many reads is drained before
     *  the next read is serviced. */
    static constexpr int kStarvationCap = 16;

    DetailedChannel(const DramTimingCpu &timing, int num_banks)
        : cmd_(timing, num_banks, /*open_row_window=*/1)
    {
    }

    DramAccessTiming access(int bank, std::uint64_t row,
                            std::uint32_t bytes, bool is_write,
                            Cycle earliest);

    const DramChannelStats &stats() const { return cmd_.stats(); }
    const MemoryQueueStats &queueStats() const { return qstats_; }

    void
    resetStats()
    {
        cmd_.resetStats();
        qstats_ = MemoryQueueStats{};
    }

    int writeQueueSize() const { return wqSize_; }

    /** Largest bypass count over the queued writes (invariant hook). */
    std::uint32_t maxQueuedBypasses() const;

    /** Warm-state checkpoint: the command channel's bank/bus/refresh
     *  state, then the write queue. */
    void
    saveState(StateWriter &out) const
    {
        cmd_.saveState(out);
        out.pod(wq_);
        out.pod(wqSize_);
    }

    void
    loadState(StateReader &in)
    {
        cmd_.loadState(in);
        in.pod(wq_);
        in.pod(wqSize_);
    }

  private:
    struct WriteEntry
    {
        std::uint64_t row = 0;
        std::uint32_t bank = 0;
        std::uint32_t bytes = 0;
        std::uint32_t bypasses = 0;
        std::uint32_t pad = 0; //!< keep the checkpoint image defined
    };

    /** Retire the FR-FCFS pick from the write queue (row hit first,
     *  oldest otherwise). */
    void drainOne(Cycle now);

    /** Retire queued write `idx`: remove it, keeping queue order, and
     *  perform it on the command channel. */
    void drainAt(int idx, Cycle now);

    /** Every actual DRAM command -- reads and drained writes -- is
     *  timed here. */
    DramChannel cmd_;
    /** Fixed-capacity queue: the checkpoint image must be size-stable
     *  (state_io.hh restores vectors in place). */
    std::array<WriteEntry, kWriteQueueDepth> wq_{};
    int wqSize_ = 0;
    MemoryQueueStats qstats_;
};

/** The detailed pool: DetailedChannel behind the shared interleaving. */
class DetailedBackend final : public ChannelPool<DetailedChannel>
{
  public:
    DetailedBackend(const DramOrganization &org,
                    const DramTimingParams &params)
        : ChannelPool(org, params)
    {
    }

    MemoryQueueStats queueStats() const override;
};

} // namespace unison

#endif // UNISON_DRAM_DETAILED_HH

/**
 * @file
 * The cycle-accurate FR-FCFS controller (the "detailed" MemoryBackend).
 *
 * Each channel keeps strict single-open-row bank state machines plus a
 * bounded write queue. Writes are posted: they complete at acceptance
 * and retire later, drained in FR-FCFS order (row hits first, oldest
 * otherwise) when the queue crosses its high watermark -- draining down
 * to the low watermark -- or when a queued write has been bypassed by
 * too many reads (the starvation cap). Reads are serviced immediately,
 * ahead of queued writes, which is exactly the reordering the analytic
 * model's open-row window approximates.
 *
 * Under zero contention (one request in flight, no queued writes) a
 * read takes the same cycle count here as through DramModule with
 * openRowWindow=1 -- the column/bus/refresh arithmetic is shared by
 * construction, and the backend-equivalence tests pin that.
 */

#ifndef UNISON_DRAM_DETAILED_HH
#define UNISON_DRAM_DETAILED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fastdiv.hh"
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

    DetailedChannel(const DramTimingCpu &timing, int num_banks);

    DramAccessTiming access(int bank, std::uint64_t row,
                            std::uint32_t bytes, bool is_write,
                            Cycle earliest);

    const DramChannelStats &stats() const { return stats_; }
    const MemoryQueueStats &queueStats() const { return qstats_; }

    void
    resetStats()
    {
        stats_.reset();
        qstats_ = MemoryQueueStats{};
    }

    int writeQueueSize() const { return wqSize_; }

    /** Largest bypass count over the queued writes (invariant hook). */
    std::uint32_t maxQueuedBypasses() const;

    void saveState(StateWriter &out) const;
    void loadState(StateReader &in);

  private:
    static constexpr std::uint64_t kNoRow = ~0ull;

    struct BankState
    {
        std::uint64_t openRow = kNoRow;
        Cycle busyUntil = 0;     //!< next-column-command gate
        Cycle activatedAt = 0;   //!< last activate (tRAS / tRC)
        Cycle prechargeOkAt = 0; //!< earliest precharge (tRTP / tWR)
    };

    struct WriteEntry
    {
        std::uint64_t row = 0;
        std::uint32_t bank = 0;
        std::uint32_t bytes = 0;
        std::uint32_t bypasses = 0;
        std::uint32_t pad = 0; //!< keep the checkpoint image defined
    };

    Cycle activateAllowedAt(Cycle t) const;
    void noteActivate(Cycle t);
    Cycle applyRefresh(Cycle t);

    /** Time one actual DRAM command (the shared bank/bus arithmetic). */
    DramAccessTiming performCommand(int bank, std::uint64_t row,
                                    std::uint32_t bytes, bool is_write,
                                    Cycle now);

    /** Retire the FR-FCFS pick from the write queue (row hit first,
     *  oldest otherwise). */
    void drainOne(Cycle now);

    /** Retire the oldest queued write (the one that hit the
     *  starvation cap). */
    void drainOldest(Cycle now);

    void removeQueued(int idx);

    DramTimingCpu timing_;
    std::vector<BankState> banks_;
    Cycle busFreeAt_ = 0;
    bool lastBurstWasWrite_ = false;
    Cycle lastActivate_ = 0;
    Cycle nextRefreshAt_ = 0;
    Cycle refreshBusyUntil_ = 0;
    Cycle actWindow_[4] = {0, 0, 0, 0};
    int actWindowIdx_ = 0;
    std::uint64_t actCount_ = 0;
    /** Fixed-capacity queue: the checkpoint image must be size-stable
     *  (state_io.hh restores vectors in place). */
    std::array<WriteEntry, kWriteQueueDepth> wq_{};
    int wqSize_ = 0;
    DramChannelStats stats_;
    MemoryQueueStats qstats_;
};

/** The detailed pool: DetailedChannel behind the shared interleaving. */
class DetailedBackend final : public MemoryBackend
{
  public:
    DetailedBackend(const DramOrganization &org,
                    const DramTimingParams &params);

    DramAccessTiming rowAccess(std::uint64_t row_idx, std::uint32_t bytes,
                               bool is_write, Cycle earliest) override;

    DramPoolStats stats() const override;
    void resetStats() override;
    MemoryQueueStats queueStats() const override;

    void
    saveState(StateWriter &out) const override
    {
        for (const DetailedChannel &ch : channels_)
            ch.saveState(out);
    }

    void
    loadState(StateReader &in) override
    {
        for (DetailedChannel &ch : channels_)
            ch.loadState(in);
    }

    /** Per-channel access for the invariant tests. */
    DetailedChannel &channel(int idx) { return channels_[idx]; }

  private:
    FastDiv64 chDiv_;
    FastDiv64 bankDiv_;
    std::vector<DetailedChannel> channels_;
};

} // namespace unison

#endif // UNISON_DRAM_DETAILED_HH

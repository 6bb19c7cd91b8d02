/**
 * @file
 * One DRAM channel: per-bank row-buffer state machines, the shared
 * data bus, and the activate-rate limits (tRRD / tFAW). This is the
 * timing core of the DRAMSim2 substitute described in DESIGN.md, and
 * channel.cc is the one copy of the bank, bus, activate-window and
 * refresh arithmetic: both memory backends time every DRAM command
 * through DramChannel::access.
 *
 * The model is open-page FCFS: requests are timed in the order they
 * arrive, each respecting bank state, bus occupancy and the activate
 * windows. Full FR-FCFS reordering is approximated by the open-row
 * window (see DramOrganization::openRowWindow); the cycle-accurate
 * FR-FCFS controller behind the same MemoryBackend seam (detailed.hh)
 * puts a write queue in front of a DramChannel with window 1, and the
 * `validation` figure grid measures where the approximation diverges
 * from it.
 */

#ifndef UNISON_DRAM_CHANNEL_HH
#define UNISON_DRAM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"
#include "dram/timing.hh"
#include "stats/stats.hh"

namespace unison {

/**
 * The one list of DRAM traffic counters, shared by the per-channel
 * struct (Counter fields, resettable at the warm-up boundary) and the
 * pool aggregate (plain uint64 sums in backend.hh). rowConflicts counts
 * precharge + activate, rowEmpty an activate into an idle bank.
 */
#define UNISON_DRAM_TRAFFIC_FIELDS(X, T)                                \
    X(T, reads)                                                         \
    X(T, writes)                                                        \
    X(T, rowHits)                                                       \
    X(T, rowConflicts)                                                  \
    X(T, rowEmpty)                                                      \
    X(T, activations)                                                   \
    X(T, bytesRead)                                                     \
    X(T, bytesWritten)                                                  \
    X(T, refreshes)

/** Counters kept per channel (summed by the pool, ChannelPool). */
struct DramChannelStats
{
    UNISON_STAT_STRUCT_BODY_T(UNISON_DRAM_TRAFFIC_FIELDS, Counter)
};

/** Result of timing one access through the channel. */
struct DramAccessTiming
{
    Cycle completion = 0; //!< cycle the last data beat arrives
    bool rowHit = false;  //!< served from the open row buffer
};

/** One channel with `numBanks` banks behind a shared data bus. */
class DramChannel
{
  public:
    /**
     * @param open_row_window rows per bank treated as hittable (the
     *        FR-FCFS reordering approximation; see DramOrganization).
     */
    DramChannel(const DramTimingCpu &timing, int num_banks,
                int open_row_window = 2);

    /**
     * Time one column access of `bytes` to (bank, row) no earlier than
     * `earliest`, updating bank/bus/window state.
     */
    DramAccessTiming access(int bank, std::uint64_t row,
                            std::uint32_t bytes, bool is_write,
                            Cycle earliest);

    const DramChannelStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Cycle at which the data bus becomes free (test hook). */
    Cycle busFreeAt() const { return busFreeAt_; }

    int numBanks() const { return static_cast<int>(banks_.size()); }

    /** Most recently opened row of `bank` (~0 when the bank is
     *  closed): the FR-FCFS drain pick of the detailed controller. */
    std::uint64_t openRow(int bank) const { return banks_[bank].openRows[0]; }

    /** Warm-state checkpoint of the bank/bus/refresh state machines
     *  (statistics excluded by the state_io.hh contract). */
    void
    saveState(StateWriter &out) const
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
    }

    void
    loadState(StateReader &in)
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
    }

  private:
    static constexpr std::uint64_t kNoRow = ~0ull;
    static constexpr int kMaxOpenRowWindow = 4;

    struct BankState
    {
        /** Recently-open rows, most recent first. */
        std::uint64_t openRows[kMaxOpenRowWindow] = {kNoRow, kNoRow,
                                                     kNoRow, kNoRow};
        Cycle busyUntil = 0;         //!< next-column-command gate
        Cycle activatedAt = 0;       //!< last activate (tRAS / tRC)
        Cycle prechargeOkAt = 0;     //!< earliest precharge (tRTP/tWR)

        bool
        rowOpen(std::uint64_t row, int window) const
        {
            for (int i = 0; i < window; ++i) {
                if (openRows[i] == row)
                    return true;
            }
            return false;
        }

        bool
        anyOpen(int window) const
        {
            for (int i = 0; i < window; ++i) {
                if (openRows[i] != kNoRow)
                    return true;
            }
            return false;
        }

        void
        openRowInsert(std::uint64_t row, int window)
        {
            for (int i = window - 1; i > 0; --i)
                openRows[i] = openRows[i - 1];
            openRows[0] = row;
        }
    };

    /** Earliest cycle a new activate may issue channel-wide. */
    Cycle activateAllowedAt(Cycle t) const;

    /** Apply any refresh windows that elapsed before `t`. */
    Cycle applyRefresh(Cycle t);

    /** Record an activate for the tRRD/tFAW windows. */
    void noteActivate(Cycle t);

    DramTimingCpu timing_;
    int openRowWindow_;
    std::vector<BankState> banks_;
    Cycle busFreeAt_ = 0;
    bool lastBurstWasWrite_ = false; //!< for the tWTR bus turnaround
    Cycle lastActivate_ = 0;         //!< for tRRD
    Cycle nextRefreshAt_ = 0;        //!< rank-wide refresh window
    Cycle refreshBusyUntil_ = 0;
    Cycle actWindow_[4] = {0, 0, 0, 0}; //!< ring buffer for tFAW
    int actWindowIdx_ = 0;
    /** Activates recorded so far: the tRRD/tFAW gates only apply once
     *  real activates back them (the ring's initial zeros are not
     *  activates at cycle 0). */
    std::uint64_t actCount_ = 0;
    DramChannelStats stats_;
};

} // namespace unison

#endif // UNISON_DRAM_CHANNEL_HH

/**
 * @file
 * The memory-reference record that flows from a workload (synthetic or
 * trace file) into the simulated memory hierarchy, and the abstract
 * source interface both implement.
 */

#ifndef UNISON_TRACE_ACCESS_HH
#define UNISON_TRACE_ACCESS_HH

#include <cstddef>
#include <cstdint>

#include "common/state_io.hh"
#include "common/types.hh"

namespace unison {

/**
 * Hard core-count ceiling across the simulator (spec validation, mix
 * parsing, the scheduler's packed clock keys). 1024 covers the
 * datacenter consolidation studies ("hundreds of simulated cores");
 * the scheduler packs core ids into the low mantissa bits of its
 * clock keys, which holds comfortably up to this bound (see
 * System::run).
 */
inline constexpr int kMaxCores = 1024;

/**
 * One memory reference as seen by a core's load/store unit.
 *
 * The stream is interleaved across cores; `instrsBefore` is the number
 * of (non-memory) instructions the issuing core executed since its
 * previous reference, which the timing model converts into compute
 * cycles. This is the standard trace-driven contract the paper's Flexus
 * traces provide.
 */
struct MemoryAccess
{
    Addr addr = 0;                 //!< physical byte address
    Pc pc = 0;                     //!< issuing instruction address
    std::uint16_t instrsBefore = 0;//!< instructions since core's last ref
    std::uint16_t core = 0;        //!< issuing core id (< kMaxCores)
    bool isWrite = false;          //!< store (true) or load (false)
};

/**
 * Compatibility shim: the timing loop calls next() through the vtable
 * and no longer recovers a source's concrete type. perfbench/runner.cpp
 * still overrides kind() with `Other`; a change to that benchmark can
 * drop both overrides, kind() and this enum.
 */
enum class AccessSourceKind : std::uint8_t
{
    Other,
};

/**
 * Anything that can produce per-core streams of MemoryAccess records:
 * the synthetic workload models, or a trace file reader.
 *
 * The timing model pulls the next reference *for a specific core* (the
 * one whose clock is furthest behind), which keeps the per-core clocks
 * synchronized -- the standard discipline for multi-core trace-driven
 * simulation.
 */
class AccessSource
{
  public:
    virtual ~AccessSource() = default;

    /** Shim for perfbench/runner.cpp (see AccessSourceKind). */
    virtual AccessSourceKind kind() const { return AccessSourceKind::Other; }

    /**
     * Produce core `core`'s next reference.
     * @return false when that core's stream is exhausted (synthetic
     *         sources never are).
     */
    virtual bool next(int core, MemoryAccess &out) = 0;

    /**
     * Fill up to `max` consecutive references for `core` into the
     * contiguous array `out` and return how many were produced (0 =
     * stream exhausted). For sources where amortization wins --
     * chunked trace-file decoding, bulk trace capture -- this is the
     * fast entry point; the timing model itself consumes one record
     * at a time (measurement showed staging records through memory
     * costs more than the dispatch it saves). The default forwards
     * to next().
     */
    virtual std::size_t
    nextBatch(int core, MemoryAccess *out, std::size_t max)
    {
        std::size_t produced = 0;
        while (produced < max && next(core, out[produced]))
            ++produced;
        return produced;
    }

    /** Number of cores the source provides streams for. */
    virtual int numCores() const = 0;

    /**
     * Warm-state checkpoint support. A source that returns true must
     * serialize *all* mutable stream state in saveState so a loadState
     * on a freshly constructed identical source resumes the exact
     * stream. Default false (and empty save/load): trace readers and
     * out-of-tree sources simply opt out of checkpoint reuse.
     */
    virtual bool checkpointable() const { return false; }
    virtual void saveState(StateWriter &out) const { (void)out; }
    virtual void loadState(StateReader &in) { (void)in; }
};

} // namespace unison

#endif // UNISON_TRACE_ACCESS_HH

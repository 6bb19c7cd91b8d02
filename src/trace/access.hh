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
 * Each core has its own stream; `instrsBefore` is the number
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
 * The timing model pulls references *for a specific core*. Which core
 * it asks for, and when, depends on the simulated timing (see
 * System::run), so a source must keep its cores' streams independent
 * of each other (the contract on next()).
 */
class AccessSource
{
  public:
    virtual ~AccessSource() = default;

    /** Shim for perfbench/runner.cpp (see AccessSourceKind). */
    virtual AccessSourceKind kind() const { return AccessSourceKind::Other; }

    /**
     * Produce core `core`'s next reference.
     *
     * Per-core stream contract: the sequence of references core c
     * receives -- and the call at which its stream drains -- depends
     * only on how many times next(c, ...) has been called, never on
     * calls for other cores in between. System::run relies on it: a
     * core runs its private L1 hits ahead of the other cores, so the
     * call order differs from the order in which the references are
     * timed. A source that draws every core from one generator breaks
     * the contract (tests/source_order_test.cpp checks each in-tree
     * source under two call orders).
     *
     * @return false when that core's stream is exhausted (synthetic
     *         sources never are).
     */
    virtual bool next(int core, MemoryAccess &out) = 0;

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

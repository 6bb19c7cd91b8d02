/**
 * @file
 * Parallel experiment runner: executes a batch of independent
 * ExperimentSpecs on a pool of worker threads.
 *
 * Every figure and table in the paper is a sweep of dozens of
 * (workload x design x capacity x knob) points, and each point is a
 * self-contained simulation with its own RNG seed, System and caches.
 * That makes the sweep embarrassingly parallel: results are
 * bit-identical whether a spec runs on one thread or sixteen, which a
 * ctest enforces (runner_test.cpp).
 */

#ifndef UNISON_SIM_RUNNER_HH
#define UNISON_SIM_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace unison {

/** Called after each experiment completes, under an internal lock (so
 *  plain fprintf progress reporting is safe). `index` is the spec's
 *  position in the input vector. */
using ExperimentCallback =
    std::function<void(std::size_t index, const SimResult &result)>;

/**
 * The durable-store seam: one interface for everything a run may
 * persist across process deaths, implemented once by StoreCacheHook
 * (store/result_store.hh) over the content-addressed result store.
 *
 * Results: before simulating, the runner offers every spec to
 * lookupResult and *skips* the ones the store already holds; after
 * each fresh completion it calls recordResult, serialized with (and
 * always before) on_done.
 *
 * Warm snapshots: a warm-prefix group asks lookupWarm before electing
 * a leader; a verified hit lets every member resume with no leader
 * run, a miss makes the leader capture and saveWarm the snapshot.
 * saveWarm may run concurrently on several worker threads.
 *
 * Every call is best-effort: a lookup that doubts its bytes misses
 * (the runner then simulates or warms up cold, which is always
 * correct), and a failed publish warns and drops.
 */
class RunStore
{
  public:
    virtual ~RunStore() = default;

    /** Replay a completed result for spec `index`; false = simulate. */
    virtual bool lookupResult(std::size_t index, SimResult &out) = 0;

    /** Publish a freshly computed result for spec `index`. */
    virtual void recordResult(std::size_t index,
                              const SimResult &result) = 0;

    /** Load the snapshot of a warm prefix; all-or-nothing. */
    virtual bool lookupWarm(const std::string &warm_key,
                            WarmCheckpoint &out) = 0;

    /** Persist the snapshot of a warm prefix. */
    virtual void saveWarm(const std::string &warm_key,
                          const WarmCheckpoint &ck) = 0;
};

/**
 * Run every spec and return the results in input order.
 *
 * @param specs    independent experiment specifications
 * @param threads  worker threads; <= 1 runs serially on the calling
 *                 thread, 0 means std::thread::hardware_concurrency()
 * @param on_done  optional per-experiment completion hook
 * @param store    optional durable store: specs it replays are never
 *                 simulated (on_done still fires for them, first and
 *                 in index order), and warm snapshots are loaded from
 *                 / saved to it; nullptr keeps warm-group reuse
 *                 in memory
 *
 * Results are bit-identical for any thread count -- and, with a
 * store, for any interruption/rerun history: each experiment owns
 * its workload RNG (seeded from the spec), its System and its caches;
 * the only shared state is the immutable Zipf sampler cache.
 */
std::vector<SimResult>
runExperiments(const std::vector<ExperimentSpec> &specs, int threads = 1,
               const ExperimentCallback &on_done = nullptr,
               RunStore *store = nullptr);

} // namespace unison

#endif // UNISON_SIM_RUNNER_HH

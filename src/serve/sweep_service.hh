/**
 * @file
 * The sweep-serving scheduler: turns one submitted grid into the
 * minimum amount of simulation, streaming each point's result the
 * moment it exists. Socket-free by design -- the server wraps it in a
 * connection handler, the tests drive it directly with threads.
 *
 * Every submission resolves each point through a three-level ladder:
 *
 *  1. *store*: the content-addressed ResultStore already holds the
 *     (spec fingerprint, code version) object -- streamed immediately,
 *     before any simulation starts (the runner's replay pre-pass);
 *  2. *peer*: a concurrent submission is already computing the same
 *     fingerprint -- this submission waits on the in-flight entry
 *     instead of duplicating the work;
 *  3. *simulate*: this submission claims the fingerprint, runs it
 *     (one runExperiments call for all its claimed points, so warm-
 *     checkpoint grouping and work stealing still apply), publishes
 *     the result to the store AND to any waiting peers.
 *
 * The claim table is what makes "concurrent overlapping submissions
 * never duplicate a point's simulation" hold: a fingerprint is either
 * in the store, in flight (exactly one owner), or unclaimed, and the
 * transition unclaimed -> in flight happens under one lock for all of
 * a submission's points at once. Results always reach the store
 * *before* the claim is released (the runner records to the store
 * hook before on_done fires), so a fingerprint can never be both
 * unclaimed and unsimulated-but-requested.
 *
 * The substitution contract is the repo-wide one: however a point was
 * resolved, its result bytes are identical to an uninterrupted local
 * run's (ctest- and CI-enforced end to end).
 */

#ifndef UNISON_SERVE_SWEEP_SERVICE_HH
#define UNISON_SERVE_SWEEP_SERVICE_HH

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/spec_json.hh"
#include "store/result_store.hh"

namespace unison {
namespace serve {

/** How one submission's points were resolved. */
struct SubmitStats
{
    std::size_t points = 0;
    std::uint64_t storeHits = 0; //!< served from the result store
    std::uint64_t peerHits = 0;  //!< served by a concurrent submission
                                 //!< (or an identical earlier point)
    std::uint64_t simulated = 0; //!< actually run here
};

/** Per-point delivery: called once per grid point, in completion
 *  order (store hits first, in index order), never concurrently.
 *  `source` is "store", "peer", "dup" or "simulated". */
using PointSink =
    std::function<void(const ResultPoint &point, const char *source)>;

class SweepService
{
  public:
    /** @param threads  worker threads per submission (runExperiments
     *                  semantics: 0 = hardware concurrency). */
    SweepService(ResultStore &store, int threads);

    /**
     * Resolve one grid, streaming every point to `sink`. Validates all
     * specs up front (throws SimError(Usage) naming the bad point) and
     * fingerprints the grid exactly like a local `--spec` run, so the
     * client can reassemble a byte-identical results document.
     *
     * Safe to call from many threads at once; overlapping submissions
     * share in-flight work instead of duplicating it.
     *
     * @param grid_hash_out  receives the full-grid fingerprint
     */
    SubmitStats run(const GridFile &grid, const PointSink &sink,
                    std::string *grid_hash_out = nullptr);

    ResultStore &store() { return store_; }
    int threads() const { return threads_; }

  private:
    /** One fingerprint being computed by some submission; waiters
     *  block on the condition variable and read the result (or the
     *  failure) once `done`. */
    struct Inflight
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        bool failed = false;
        std::string error;
        SimResult result;
    };

    /** Resolve-and-erase: hand `result` (or the failure) to any
     *  waiters of `fp` and release the claim. */
    void publish(const std::string &fp, const SimResult *result,
                 const std::string &error);

    ResultStore &store_;
    int threads_;

    std::mutex mapMutex_;
    std::unordered_map<std::string, std::shared_ptr<Inflight>>
        inflight_;
};

} // namespace serve
} // namespace unison

#endif // UNISON_SERVE_SWEEP_SERVICE_HH

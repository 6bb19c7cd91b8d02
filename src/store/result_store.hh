/**
 * @file
 * Content-addressed result store: the one durable mechanism of a run.
 * Completed SimResults are keyed by what they ARE -- (spec
 * fingerprint, code version) -- instead of which run produced them.
 * Any invocation that is about to simulate a spec asks the store
 * first; a hit substitutes the cached result byte-for-byte, and every
 * fresh completion is published back. So a killed run, any shard of
 * it, or a later overlapping grid replays every point that reached
 * the store, and repeated sweeps converge to zero simulation.
 *
 * # Layout
 *
 * One file per object under `<dir>/objects/`, two kinds:
 *
 *     <specFingerprint>.<fnv16(codeVersion)>.res     a result
 *     <fnv16(warmPrefixKey)>.<fnv16(codeVersion)>.ckpt  a warm snapshot
 *
 * Each holds a single CRC-32 record frame (common/crc_frame.hh). A
 * result's payload is JSON ('USRC' frames):
 *
 *     {storeRecord: 1, specFingerprint, codeVersion, spec, result}
 *
 * A warm snapshot's payload is raw state ('USWS' frames, common/
 * state_io.hh encoding): the code version, the full warm-prefix key,
 * the warm boundary and the System snapshot bytes.
 *
 * The spec fingerprint is the FNV-1a of the spec's canonical JSON
 * (spec_json.hh specFingerprint), so two specs that serialize
 * identically -- and therefore simulate identically -- share one
 * object. The code version in both the name and the payload refuses
 * hits across behaviour-changing builds; a rebuilt simulator simply
 * repopulates the store under new names.
 *
 * # Trust model
 *
 * Objects are published atomically (write a dot-prefixed temp file
 * `.tmp.<pid>.<seq>` in the same directory, fsync it, rename it into
 * place, fsync the directory), so readers never see a partial object
 * and a published one survives power loss. On lookup every layer is
 * verified before a byte is trusted: frame CRC, payload schema,
 * embedded code version, and the embedded identity -- the fingerprint
 * *recomputed from the embedded spec* for results, the embedded
 * warm-prefix key for snapshots (guards misplaced or hash-colliding
 * files, not just bit rot). Any doubt is a structured
 * "store-rejected" warning and a miss -- the caller simulates or
 * warms up cold, which is always correct. Publishing is likewise
 * best-effort: a failed publish, or a payload over the frame bound,
 * warns ("store-save-failed") and drops.
 *
 * # Eviction
 *
 * gc() trims the objects directory to a byte budget, oldest mtime
 * first, over both kinds. It never touches results pinned by an
 * in-flight run (StoreCacheHook pins every spec it serves for its
 * lifetime); warm snapshots are never pinned, since losing one only
 * costs a warm-up. Pins are per-process: the serve daemon, which owns
 * the long-lived store, is thereby safe to gc concurrently with active
 * sweeps. gc also reclaims the temp files of publishers that died
 * mid-write (their pid no longer exists).
 */

#ifndef UNISON_STORE_RESULT_STORE_HH
#define UNISON_STORE_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/version.hh"
#include "sim/runner.hh"
#include "sim/spec_json.hh"

namespace unison {

/** What one gc() pass saw and did. */
struct StoreGcSummary
{
    std::size_t scanned = 0;    //!< objects examined (both kinds)
    std::size_t evicted = 0;    //!< objects unlinked
    std::size_t pinnedKept = 0; //!< over-budget but in flight: spared
    std::size_t temps = 0;      //!< temp files seen
    std::size_t orphansRemoved = 0; //!< temps of dead publishers
    std::uint64_t bytesBefore = 0;  //!< objects + temp files
    std::uint64_t bytesAfter = 0;
};

class ResultStore
{
  public:
    /** Open (creating directories best-effort) a store rooted at
     *  `dir`, serving results for `code_version` builds only. */
    explicit ResultStore(std::string dir,
                         std::string code_version = kSimCodeVersion);

    const std::string &dir() const { return dir_; }
    const std::string &codeVersion() const { return codeVersion_; }

    /** The object file a spec fingerprint maps to under this store's
     *  code version (exposed for tests and tooling). */
    std::string objectPath(const std::string &spec_fp) const;

    /** The warm-snapshot object a warm-prefix key maps to. */
    std::string warmObjectPath(const std::string &warm_key) const;

    /** @name Lookup / insert
     * The Fp variants take a precomputed specFingerprint so batch
     * callers hash each spec once; the plain variants hash inline.
     * lookup returns false (a miss) on absence OR on any integrity
     * doubt; insert never fails the caller.
     */
    /**@{*/
    bool lookup(const ExperimentSpec &spec, SimResult &out);
    bool lookupFp(const std::string &spec_fp, SimResult &out);
    void insert(const ExperimentSpec &spec, const SimResult &result);
    void insertFp(const std::string &spec_fp, const ExperimentSpec &spec,
                  const SimResult &result);
    /**@}*/

    /** @name Warm snapshots
     * lookupWarm is all-or-nothing: false (and `out` untouched) on
     * absence or any doubt. saveWarm never fails the caller.
     */
    /**@{*/
    bool lookupWarm(const std::string &warm_key, WarmCheckpoint &out);
    void saveWarm(const std::string &warm_key, const WarmCheckpoint &ck);
    /**@}*/

    /** @name In-flight pinning
     * A pinned fingerprint's object survives gc() regardless of the
     * byte budget. Pins nest (a count per fingerprint); unpin drops
     * one level. Per-process only.
     */
    /**@{*/
    void pin(const std::string &spec_fp);
    void unpin(const std::string &spec_fp);
    /**@}*/

    /** Trim the objects directory to at most `max_bytes`: first unlink
     *  the temp files of dead publishers, then evict unpinned objects
     *  oldest-mtime-first (name-ordered within a second). Live temp
     *  files and pinned results are never touched. */
    StoreGcSummary gc(std::uint64_t max_bytes);

    /** @name Counters (per ResultStore instance, thread-safe) */
    /**@{*/
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t inserts() const { return inserts_.load(); }
    std::uint64_t warmHits() const { return warmHits_.load(); }
    std::uint64_t warmSaves() const { return warmSaves_.load(); }
    /**@}*/

  private:
    /** Publish one record frame around `payload` at `path`: temp
     *  file, rename, directory fsync. False (with a store-save-failed
     *  warning, and nothing left behind) on any failure. */
    bool publish(const std::string &path, std::uint32_t magic,
                 const void *payload, std::size_t len);

    std::string dir_;
    std::string codeVersion_;
    std::string versionTag_; //!< fnv16(codeVersion_), cached

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> inserts_{0};
    std::atomic<std::uint64_t> warmHits_{0};
    std::atomic<std::uint64_t> warmSaves_{0};
    std::atomic<std::uint64_t> tmpSeq_{0};

    std::mutex pinMutex_;
    std::multiset<std::string> pinned_; //!< fingerprints, one per pin
};

/**
 * The runner-facing adapter: wires a ResultStore into runExperiments
 * as its RunStore. Construction fingerprints every spec once and pins
 * them all (released on destruction), so a concurrent gc cannot evict
 * an object between its replay-pass hit and the end of the run.
 * `specs` must outlive the hook.
 */
class StoreCacheHook : public RunStore
{
  public:
    StoreCacheHook(ResultStore &store,
                   const std::vector<ExperimentSpec> &specs);
    ~StoreCacheHook() override;

    StoreCacheHook(const StoreCacheHook &) = delete;
    StoreCacheHook &operator=(const StoreCacheHook &) = delete;

    bool lookupResult(std::size_t index, SimResult &out) override;
    void recordResult(std::size_t index,
                      const SimResult &result) override;
    bool lookupWarm(const std::string &warm_key,
                    WarmCheckpoint &out) override;
    void saveWarm(const std::string &warm_key,
                  const WarmCheckpoint &ck) override;

    /** Points this hook served from the store (replay-pass hits). */
    std::uint64_t hits() const { return hits_.load(); }

    /** True when spec `index` was served from the store rather than
     *  simulated (set during the runner's replay pre-pass, which runs
     *  before any worker thread starts). */
    bool wasHit(std::size_t index) const { return hit_[index] != 0; }

    const std::string &fingerprintOf(std::size_t index) const
    {
        return fps_[index];
    }

  private:
    ResultStore &store_;
    const std::vector<ExperimentSpec> &specs_;
    std::vector<std::string> fps_;
    std::vector<char> hit_;
    std::atomic<std::uint64_t> hits_{0};
};

} // namespace unison

#endif // UNISON_STORE_RESULT_STORE_HH

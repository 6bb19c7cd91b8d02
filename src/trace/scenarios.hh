/**
 * @file
 * Synthetic micro-scenario generators for multiprogrammed mixes.
 *
 * The calibrated CloudSuite/TPC-H presets (presets.hh) model whole
 * server workloads; these scenarios are the orthogonal stress axes a
 * heterogeneous consolidation study needs on individual cores:
 *
 *  - *pointer chase*: a dependent random walk of singleton reads, the
 *    worst case for footprint prediction and page-granular allocation;
 *  - *streaming scan*: a sequential sweep that never reuses a block,
 *    the best case for spatial footprints and row-buffer locality;
 *  - *random update (GUPS-style)*: read-modify-write pairs to uniform
 *    random blocks, stressing dirty-writeback and off-chip bandwidth;
 *  - *producer/consumer*: most references land in a small hot set
 *    *shared between the cores running this scenario* (producers write
 *    it, consumers read it), creating inter-core page contention that
 *    a homogeneous source cannot express.
 *
 * Each ScenarioSource is a single-core AccessSource; MixedWorkload
 * (mix.hh) assigns one per core and lays out the private/shared
 * address regions so streams are deterministic per (params, seed,
 * core) regardless of how the scheduler interleaves cores.
 */

#ifndef UNISON_TRACE_SCENARIOS_HH
#define UNISON_TRACE_SCENARIOS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/access.hh"

namespace unison {

/** The mix-scenario generators. The last three are the *datacenter*
 *  family: skewed request streams over keyspaces of millions of
 *  distinct keys, modeled after YCSB-over-KV serving, DLRM embedding
 *  gathers and client/server file serving with a metadata hot set. */
enum class ScenarioKind
{
    PointerChase,
    StreamScan,
    RandomUpdate,
    ProducerConsumer,
    YcsbKv,
    DlrmEmbed,
    FileServe,
};

/** True for the large-keyspace serving generators (YcsbKv, DlrmEmbed,
 *  FileServe), which use the shared region as a keyed data space
 *  rather than a small hot set. */
bool scenarioIsDatacenter(ScenarioKind kind);

/** Tunables of one scenario instance (one core). */
struct ScenarioParams
{
    ScenarioKind kind = ScenarioKind::PointerChase;

    /** Private working set of this core. */
    std::uint64_t footprintBytes = 512ull << 20;

    /** Shared hot set (ProducerConsumer only; same region for every
     *  core running the scenario in a mix). */
    std::uint64_t hotSetBytes = 4ull << 20;

    /** Fraction of references that hit the shared hot set. */
    double hotFraction = 0.75;

    /** Store fraction of the non-paired references. */
    double writeFraction = 0.02;

    /** Mean non-memory instructions per reference. */
    double instrsPerMemRef = 6.0;

    /** Blocks advanced per reference (StreamScan). */
    std::uint32_t strideBlocks = 1;

    /** @name Datacenter generator knobs (YcsbKv, DlrmEmbed, FileServe)
     *
     * numKeys is the distinct keys (records / embedding rows per
     * table / files) in the shared keyspace; it is rounded *down* to a
     * power of two so Zipf ranks scatter bijectively over keys (a
     * modulo fold would silently lose ~37% of the distinct keys).
     * recordBlocks is the contiguous extent of one key's data.
     * requestBlocksMean shapes the per-request transfer length
     * (geometric, capped at recordBlocks for keyed reads).
     */
    /**@{*/
    std::uint64_t numKeys = 1ull << 20;
    double keyZipfAlpha = 0.99;
    std::uint32_t recordBlocks = 16;
    double requestBlocksMean = 4.0;
    std::uint32_t numTables = 8;       //!< DlrmEmbed embedding tables
    std::uint32_t lookupsPerTable = 4; //!< DlrmEmbed multi-hot degree
    /**@}*/
};

/** Power-of-two keyspace a datacenter scenario actually uses
 *  (bit_floor of numKeys; >= 2). */
std::uint64_t scenarioKeySpace(const ScenarioParams &params);

/** Bytes of shared region a mix must reserve for one scenario: the
 *  hot set for ProducerConsumer, the keyed data space (plus metadata
 *  hot set for FileServe) for the datacenter kinds. */
std::uint64_t scenarioSharedBytes(const ScenarioParams &params);

/** Calibrated defaults for each scenario kind. */
ScenarioParams scenarioParams(ScenarioKind kind);

/** Display name ("Pointer Chase", "Streaming Scan", ...). */
std::string scenarioName(ScenarioKind kind);

/** Parse a scenario name or alias ("chase", "scan", "gups",
 *  "prodcons"); returns false when the name is not a scenario. */
bool scenarioFromName(const std::string &name, ScenarioKind &out);

/**
 * One core's scenario stream. Addresses fall in
 * [privateBase, privateBase + footprintBytes) plus, for
 * ProducerConsumer, [sharedBase, sharedBase + hotSetBytes); the mix
 * builder chooses the bases so private regions never overlap and the
 * hot set is common to all cores of the scenario.
 */
class ScenarioSource final : public AccessSource
{
  public:
    /**
     * @param core_id global core index: seeds the private stream and
     *        decides the producer/consumer role (even cores produce).
     */
    ScenarioSource(const ScenarioParams &params, std::uint64_t seed,
                   int core_id, Addr private_base, Addr shared_base);

    bool next(int core, MemoryAccess &out) override;
    int numCores() const override { return 1; }

    const ScenarioParams &params() const { return params_; }
    bool isProducer() const { return producer_; }

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        out.pod(rng_);
        out.pod(chaseCursor_);
        out.pod(scanCursor_);
        out.pod(updatePending_);
        out.pod(updateBlock_);
        out.pod(burstBlock_);
        out.pod(burstLeft_);
        out.pod(burstWrite_);
        out.pod(burstPhase_);
        out.pod(tableCursor_);
        out.pod(lookupCursor_);
    }

    void
    loadState(StateReader &in) override
    {
        in.pod(rng_);
        in.pod(chaseCursor_);
        in.pod(scanCursor_);
        in.pod(updatePending_);
        in.pod(updateBlock_);
        in.pod(burstBlock_);
        in.pod(burstLeft_);
        in.pod(burstWrite_);
        in.pod(burstPhase_);
        in.pod(tableCursor_);
        in.pod(lookupCursor_);
    }

  private:
    void emit(std::uint64_t block, bool is_write, Pc pc,
              MemoryAccess &out);
    bool nextYcsbKv(MemoryAccess &out);
    bool nextDlrmEmbed(MemoryAccess &out);
    bool nextFileServe(MemoryAccess &out);
    std::uint64_t scatterKey(std::uint64_t rank, std::uint64_t salt) const;
    std::uint64_t requestLength();

    ScenarioParams params_;
    Rng rng_;
    bool producer_;
    std::uint64_t privateBaseBlock_;
    std::uint64_t sharedBaseBlock_;
    std::uint64_t privateBlocks_;
    std::uint64_t hotBlocks_;
    std::uint32_t writeThresh24_;
    std::uint32_t instrSpan_;

    /** Datacenter-kind constants (set at construction, not state). */
    std::shared_ptr<const TwoLevelZipfSampler> keyZipf_;
    std::uint64_t keySpace_ = 0;     //!< bit_floor(numKeys)
    std::uint64_t recordBlocks_ = 1; //!< >= 1 copy of params
    double reqLenDenom_ = 0.0;       //!< geometric denom, see Rng
    bool reqLenGeometric_ = false;   //!< requestBlocksMean > 1

    std::uint64_t chaseCursor_ = 0; //!< PointerChase position
    std::uint64_t scanCursor_ = 0;  //!< StreamScan / scratch position
    bool updatePending_ = false;    //!< RandomUpdate write half due
    std::uint64_t updateBlock_ = 0;

    /** @name Datacenter request-burst state
     * A request (KV record read, embedding-row gather, file transfer,
     * MLP pass) emits one access per next() call; these fields carry
     * the in-flight burst across calls and are checkpointed.
     */
    /**@{*/
    std::uint64_t burstBlock_ = 0;   //!< next block of the burst
    std::uint64_t burstLeft_ = 0;    //!< accesses left in the burst
    bool burstWrite_ = false;        //!< burst is a write transfer
    std::uint8_t burstPhase_ = 0;    //!< DlrmEmbed: 1 gather, 2 MLP
    std::uint32_t tableCursor_ = 0;  //!< DlrmEmbed table in progress
    std::uint32_t lookupCursor_ = 0; //!< DlrmEmbed lookup within table
    /**@}*/
};

} // namespace unison

#endif // UNISON_TRACE_SCENARIOS_HH

/**
 * @file
 * The machine-readable experiment schema: (de)serialization between
 * ExperimentSpec/SimResult/grid files and JSON, so any frontend -- the
 * unison_sim CLI, CI, or a future network service -- can drive the
 * simulator and consume its results without linking bench code.
 *
 * Three document kinds, each self-identifying via a "schema" field:
 *
 *  - `unison-spec/5`    one experiment spec -- the only spec version
 *                       this build reads or writes. Every scenario
 *                       carries the datacenter generator knobs
 *                       [numKeys, keyZipfAlpha, recordBlocks,
 *                       requestBlocksMean, numTables,
 *                       lookupsPerTable]; core counts go up to
 *                       kMaxCores. Any other `unison-spec/N` is a
 *                       json::Error asking for a re-export with
 *                       `unison_sim --export-spec`;
 *  - `unison-grid/1`    a named list of labelled specs (a sweep);
 *  - `unison-results/1` a list of (index, label, spec, result) points.
 *
 * Guarantees the tests pin:
 *  - *round-trip exact*: parse(write(x)) == x for specs and results,
 *    byte-for-byte at the JSON level (doubles print in shortest
 *    round-trip form, 64-bit counters never go through a double);
 *  - *unknown-key rejection*: any key the schema does not define is a
 *    json::Error naming the offender and the accepted keys -- a typo'd
 *    knob cannot silently run defaults;
 *  - design knobs come from the design registry's knob table, so the
 *    schema extends automatically when a design registers a knob.
 *
 * Not serialized (fixed at their Table III defaults): the SRAM
 * hierarchy geometry and the DRAM organization/timing structs. Bump
 * the schema version before serializing them.
 */

#ifndef UNISON_SIM_SPEC_JSON_HH
#define UNISON_SIM_SPEC_JSON_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/sweep.hh"

namespace unison {

inline constexpr const char *kSpecSchema = "unison-spec/5";
inline constexpr const char *kGridSchema = "unison-grid/1";
inline constexpr const char *kResultsSchema = "unison-results/1";

/** @name One experiment spec */
/**@{*/
json::Value specToJson(const ExperimentSpec &spec);
ExperimentSpec specFromJson(const json::Value &value);
/**@}*/

/** @name One simulation result */
/**@{*/
json::Value resultToJson(const SimResult &result);
SimResult resultFromJson(const json::Value &value);
/**@}*/

/** A parsed grid file: named, labelled specs in run order. */
struct GridFile
{
    std::string name; //!< grid identity ("fig7", "custom", ...)
    std::vector<GridPoint> points;
};

/** @name Grid documents
 * toJson accepts the points of a SweepGrid/figureGrid; fromJson also
 * accepts a bare `unison-spec/5` document as a one-point grid, so
 * `unison_sim --spec` runs either document kind.
 */
/**@{*/
json::Value gridToJson(const std::string &name,
                       const std::vector<GridPoint> &points);
GridFile gridFromJson(const json::Value &value);
/**@}*/

/** One completed point of a results document. */
struct ResultPoint
{
    std::size_t index = 0; //!< position in the *full* (unsharded) grid
    std::string label;
    ExperimentSpec spec;
    SimResult result;
};

/** @name Results documents
 * `shard` is "" for a full run or "i/n" for a shard; merging drops it.
 * `grid_hash` fingerprints the *full* grid the points came from, so a
 * merge can reject shards of different runs of a same-named grid.
 * Every document also stamps `codeVersion` (kSimCodeVersion) -- the
 * build that produced the numbers -- so merges can refuse to mix
 * results across behaviour-changing builds.
 * Points are written sorted by index, which is what makes a merge of
 * shard files byte-identical to an unsharded run.
 */
/**@{*/
json::Value resultsToJson(const std::string &grid_name,
                          const std::string &shard,
                          const std::string &grid_hash,
                          std::vector<ResultPoint> points);
std::vector<ResultPoint> resultsFromJson(const json::Value &value,
                                         std::string *grid_name,
                                         std::string *shard,
                                         std::string *grid_hash,
                                         std::string *code_version =
                                             nullptr);
/**@}*/

/** FNV-1a fingerprint (16 hex chars) of a serialized grid document;
 *  identical grids => identical fingerprints, so shard result files
 *  can prove they came from the same grid before merging. */
std::string gridFingerprint(const std::string &grid_json);

/** Content address of one experiment spec: the fingerprint of its
 *  canonical JSON serialization (specToJson + write, so two specs
 *  that serialize identically -- and therefore simulate identically --
 *  share an address). Keys the result store together with
 *  kSimCodeVersion. */
std::string specFingerprint(const ExperimentSpec &spec);

} // namespace unison

#endif // UNISON_SIM_SPEC_JSON_HH

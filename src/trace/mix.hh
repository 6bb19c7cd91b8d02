/**
 * @file
 * Multiprogrammed workload mixes: a per-core assignment of access
 * sources (workload presets, custom WorkloadParams, scenario
 * generators, or trace files) behind one AccessSource facade.
 *
 * The paper consolidates heterogeneous server workloads on one CMP;
 * MixedWorkload expresses that: core 0 can run Web Serving while core
 * 1 streams TPC-H scans and core 2 pointer-chases. Each core's stream
 * comes from its own generator with its own seed, so the stream a
 * core sees is a pure function of (mix, seed, core) -- independent of
 * how the timing model interleaves cores, which is what keeps mix
 * sweeps bit-identical for any --threads worker count.
 *
 * Private address regions are laid out disjointly from 64 TiB upward
 * (multiprogrammed processes share no physical pages, and captured
 * traces replay absolute addresses far below that base); only the
 * ProducerConsumer scenario's hot set is deliberately mapped at one
 * shared base for all cores running it.
 */

#ifndef UNISON_TRACE_MIX_HH
#define UNISON_TRACE_MIX_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/presets.hh"
#include "trace/scenarios.hh"
#include "trace/workload.hh"

namespace unison {

/**
 * One slice of a mix: `cores` consecutive cores running the same kind
 * of source. Exactly one of preset/custom/scenario/tracePath must be
 * set.
 */
struct MixPart
{
    int cores = 1;

    std::optional<Workload> preset;
    std::optional<WorkloadParams> custom;
    std::optional<ScenarioParams> scenario;
    std::string tracePath;

    /** Short display label ("Web Serving", "Pointer Chase", ...). */
    std::string label() const;
};

/** Convenience constructors for mix tables. */
MixPart mixPreset(Workload w, int cores);
MixPart mixScenario(ScenarioKind kind, int cores);
MixPart mixCustom(const WorkloadParams &params, int cores);

/**
 * Parse a mix description like "webserving:2,tpch:2" or "scan,chase".
 * Each comma-separated element is a workload preset name/alias or a
 * scenario name/alias, optionally ":<cores>" (default 1). Fatal on
 * malformed input.
 */
std::vector<MixPart> parseMixSpec(const std::string &text);

/** Compact name for a mix ("webserving:2+tpchqueries:2"). */
std::string mixName(const std::vector<MixPart> &parts);

/** The per-core facade. */
class MixedWorkload final : public AccessSource
{
  public:
    /**
     * @param parts  per-slice assignments; core counts must sum to
     *               `num_cores` (fatal otherwise)
     * @param seed   base seed; core c's generator is seeded from
     *               (seed, c) so streams are core-independent
     */
    MixedWorkload(const std::vector<MixPart> &parts, int num_cores,
                  std::uint64_t seed);

    bool next(int core, MemoryAccess &out) override;
    int numCores() const override
    {
        return static_cast<int>(cores_.size());
    }
    AccessSourceKind kind() const override
    {
        return AccessSourceKind::Mixed;
    }

    /** Label of the source driving `core`. */
    const std::string &coreLabel(int core) const;

    /** Checkpointable iff every per-core generator is (trace readers
     *  are not); state is the concatenation of the owned sources'. */
    bool checkpointable() const override;
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

  private:
    struct CoreBinding
    {
        AccessSource *source = nullptr; //!< borrowed from owned_
        int localCore = 0;   //!< sub-stream index within source
        Addr addrOffset = 0; //!< private-region displacement
        std::string label;
    };

    std::vector<std::unique_ptr<AccessSource>> owned_;
    std::vector<CoreBinding> cores_;
};

} // namespace unison

#endif // UNISON_TRACE_MIX_HH

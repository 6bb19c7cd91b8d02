/**
 * @file
 * One-call experiment runner shared by all bench harnesses, the
 * examples and the `unison_sim` driver: pick a workload source, a
 * design config, a capacity and optional knobs, and get back a
 * SimResult.
 *
 * The design under test is a *typed* per-design config
 * (UnisonConfig/AlloyConfig/...) held in a variant (see
 * design_registry.hh); the flat knob fields that used to be smeared
 * across this struct live in those configs now, and everything
 * design-specific -- names, factories, knob parsing, validation --
 * comes from the design registry.
 */

#ifndef UNISON_SIM_EXPERIMENT_HH
#define UNISON_SIM_EXPERIMENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/design_registry.hh"
#include "sim/system.hh"
#include "trace/mix.hh"
#include "trace/presets.hh"

namespace unison {

/** Full experiment specification. Serializable: see sim/spec_json.hh
 *  for the JSON schema (`unison-spec/5`). */
struct ExperimentSpec
{
    Workload workload = Workload::WebServing;

    /**
     * When set, overrides the preset: the experiment synthesizes its
     * stream from these parameters instead (numCores still follows
     * system.numCores). Lets parameter-sensitivity sweeps run through
     * the parallel runner like any other experiment.
     */
    std::optional<WorkloadParams> customWorkload;

    /**
     * Multiprogrammed mix: when non-empty, overrides both the preset
     * and customWorkload with a per-core source assignment (core
     * counts must sum to system.numCores). Results carry per-core
     * partitions in SimResult::perCore, labelled by source.
     */
    std::vector<MixPart> mix;

    /**
     * The design under test: a typed config selected and defaulted
     * through the registry. `spec.design = DesignKind::Alloy` picks
     * registry defaults; `spec.design.as<UnisonConfig>().assoc = 8`
     * tweaks a knob. The config's own capacityBytes/numCores fields
     * are ignored -- the spec-level fields below win, so sweep axes
     * never reach inside the variant.
     */
    DesignConfig design;

    std::uint64_t capacityBytes = 1_GiB;

    /** Simulation length: 0 = auto-scale with capacity. */
    std::uint64_t accesses = 0;

    /** Divide the auto-scaled length by 8 (CI/quick mode). */
    bool quick = false;

    std::uint64_t seed = 42;
    SystemConfig system{};

    DesignKind designKind() const { return design.kind(); }

    /**
     * The one place spec consistency is checked: core counts, capacity
     * alignment, mix shape, warm-up windows, and the design's own knob
     * ranges (via its registry validate hook). Returns "" when the
     * spec is runnable, else one actionable message.
     */
    std::string validationError() const;

    /** fatal() with validationError() when the spec is malformed.
     *  Called by runExperiment and the unison_sim driver. */
    void validate() const;
};

/**
 * References needed to warm a cache of this capacity to steady state
 * under the synthetic workloads (empirical fill-rate model).
 */
std::uint64_t defaultAccessCount(std::uint64_t capacity_bytes, bool quick);

/** Build the cache factory for a spec through the design registry
 *  (used by System). */
CacheFactory makeCacheFactory(const ExperimentSpec &spec);

/** Workload display label of a spec ("Web Serving", or the compact
 *  mix name for multiprogrammed specs). */
std::string specWorkloadName(const ExperimentSpec &spec);

/** Run the experiment end to end (validates first). */
SimResult runExperiment(const ExperimentSpec &spec);

/**
 * Whether the spec pins an explicit warm boundary a warm-state
 * checkpoint can capture and resume (the spec-shape half of
 * eligibility; whether the design and source can serialize their
 * state is checked at run time and falls back to a plain run).
 */
bool checkpointEligible(const ExperimentSpec &spec);

/**
 * Canonical identity of the spec's warm-up prefix: two specs with
 * equal keys simulate byte-identical system states over
 * [0, warmupAccesses). The key is the spec's JSON serialization with
 * the measured-window-only fields -- total accesses and quick --
 * normalized away, since neither can influence the stream or the
 * state before an explicit warm boundary.
 */
std::string warmPrefixKey(const ExperimentSpec &spec);

/**
 * runExperiment with warm-checkpoint hooks (see System::run). Either
 * hook is silently dropped -- plain run -- when the spec has no
 * explicit warm boundary, the design or source cannot checkpoint, or
 * `resume_from` holds an invalid snapshot (its capture never fired),
 * so callers may pass hooks optimistically.
 */
SimResult runExperimentCk(const ExperimentSpec &spec,
                          const WarmCheckpoint *resume_from,
                          WarmCheckpoint *capture_to);

} // namespace unison

#endif // UNISON_SIM_EXPERIMENT_HH

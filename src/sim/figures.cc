#include "sim/figures.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dram/backend.hh"

namespace unison {

namespace {

ExperimentSpec
baseSpec(const FigureOptions &opts)
{
    ExperimentSpec spec;
    spec.quick = opts.quick;
    spec.seed = opts.seed;
    return spec;
}

/** Design axis from explicit (label, config) pairs, for grids whose
 *  "designs" are variants of one design (Unison page sizes, ablation
 *  arms). */
SweepGrid::AxisValue
designValue(const std::string &label, DesignConfig config)
{
    return {label, [config = std::move(config)](ExperimentSpec &spec) {
                spec.design = config;
            }};
}

// ------------------------------------------------------------- fig5

/** Unison miss ratio vs associativity: a small and a large cache per
 *  workload, 1/4/32 ways. */
std::vector<GridPoint>
fig5Grid(const FigureOptions &opts)
{
    std::vector<std::vector<GridPoint>> segments;
    for (Workload w : allWorkloads()) {
        const bool tpch = (w == Workload::TpchQueries);
        SweepGrid grid(baseSpec(opts));
        grid.base().design = DesignKind::Unison;
        grid.overWorkloads({w})
            .overCapacities({tpch ? 1_GiB : 128_MiB,
                             tpch ? 8_GiB : 1_GiB})
            .overKnob<std::uint32_t>(
                "assoc", {1, 4, 32},
                [](ExperimentSpec &spec, const std::uint32_t &assoc) {
                    spec.design.as<UnisonConfig>().assoc = assoc;
                });
        segments.push_back(grid.points());
    }
    return concatGrids(segments);
}

// ------------------------------------------------------------- fig6

/** Miss ratio vs capacity for the three main designs; TPC-H sweeps
 *  1-8 GB where CloudSuite sweeps 128 MB-1 GB. */
std::vector<GridPoint>
fig6Grid(const FigureOptions &opts)
{
    const std::vector<DesignKind> designs = {
        DesignKind::Alloy, DesignKind::Footprint, DesignKind::Unison};
    std::vector<std::vector<GridPoint>> segments;
    for (Workload w : allWorkloads()) {
        const bool tpch = (w == Workload::TpchQueries);
        SweepGrid grid(baseSpec(opts));
        grid.overWorkloads({w})
            .overCapacities(
                tpch ? std::vector<std::uint64_t>{1_GiB, 2_GiB, 4_GiB,
                                                  8_GiB}
                     : std::vector<std::uint64_t>{128_MiB, 256_MiB,
                                                  512_MiB, 1_GiB})
            .overDesigns(designs);
        segments.push_back(grid.points());
    }
    return concatGrids(segments);
}

// ------------------------------------------------------------- fig7

/** Speedup vs capacity over the no-DRAM-cache baseline: one baseline
 *  point per workload, then the full (capacity x design) block. */
std::vector<GridPoint>
fig7Grid(const FigureOptions &opts)
{
    const std::vector<std::uint64_t> sizes = {128_MiB, 256_MiB,
                                              512_MiB, 1_GiB};
    const std::vector<DesignKind> designs = {
        DesignKind::Alloy, DesignKind::Footprint, DesignKind::Unison,
        DesignKind::Ideal};
    std::vector<std::vector<GridPoint>> segments;
    for (Workload w : cloudSuiteWorkloads()) {
        SweepGrid baseline(baseSpec(opts));
        baseline.base().capacityBytes = sizes.back();
        baseline.overWorkloads({w}).overDesigns(
            {DesignKind::NoDramCache});
        segments.push_back(baseline.points());

        SweepGrid grid(baseSpec(opts));
        grid.overWorkloads({w}).overCapacities(sizes).overDesigns(
            designs);
        segments.push_back(grid.points());
    }
    return concatGrids(segments);
}

// ------------------------------------------------------------- fig8

/** TPC-H speedups for 1-8 GB caches; the baseline rides in the design
 *  axis, so each capacity block is (nocache, designs...). */
std::vector<GridPoint>
fig8Grid(const FigureOptions &opts)
{
    SweepGrid grid(baseSpec(opts));
    grid.base().workload = Workload::TpchQueries;
    grid.overCapacities({1_GiB, 2_GiB, 4_GiB, 8_GiB})
        .overDesigns({DesignKind::NoDramCache, DesignKind::Alloy,
                      DesignKind::Footprint, DesignKind::Unison,
                      DesignKind::Ideal});
    return grid.points();
}

// ------------------------------------------------------ sensitivity

/** Fig. 7 sensitivity companion: AC-vs-UC ordering as page-level
 *  temporal reuse (region Zipf skew) rises. */
std::vector<GridPoint>
sensitivityGrid(const FigureOptions &opts)
{
    const std::vector<double> alphas = {0.60, 0.85, 1.00, 1.10, 1.20};
    const std::vector<std::string> labels = {"0.60", "0.85", "1.00",
                                             "1.10", "1.20"};
    ExperimentSpec base = baseSpec(opts);
    base.capacityBytes = 64_MiB;
    base.accesses = opts.quick ? 2'500'000 : 10'000'000;

    SweepGrid grid(base);
    grid.overKnob<double>(
        "alpha", alphas, labels,
        [](ExperimentSpec &spec, const double &alpha) {
            WorkloadParams p = workloadParams(Workload::DataServing);
            p.regionZipfAlpha = alpha;
            spec.customWorkload = p;
        });
    grid.overDesigns({DesignKind::NoDramCache, DesignKind::Alloy,
                      DesignKind::Unison});
    return grid.points();
}

// ------------------------------------------------------------ table5

/** Predictor accuracies: Alloy, Footprint, Unison@960B and
 *  Unison@1984B per workload (8 GB cache for TPC-H, 1 GB else). */
std::vector<GridPoint>
table5Grid(const FigureOptions &opts)
{
    UnisonConfig uc960;
    uc960.pageBlocks = 15;
    UnisonConfig uc1984;
    uc1984.pageBlocks = 31;

    std::vector<std::vector<GridPoint>> segments;
    for (Workload w : allWorkloads()) {
        SweepGrid grid(baseSpec(opts));
        grid.base().capacityBytes =
            (w == Workload::TpchQueries) ? 8_GiB : 1_GiB;
        grid.overWorkloads({w}).over(
            "design",
            {designValue("alloy", DesignKind::Alloy),
             designValue("footprint", DesignKind::Footprint),
             designValue("unison960", uc960),
             designValue("unison1984", uc1984)});
        segments.push_back(grid.points());
    }
    return concatGrids(segments);
}

// ---------------------------------------------------------- ablation

/** The Unison design-choice ablations of core/DESIGN.md: baseline
 *  first, then one arm per deviation, per workload, all at 1 GB. The
 *  alloy-fp arm is the policy framework's block-footprint hybrid; the
 *  last two swap the paper's hashed way predictor for per-set MRU and
 *  for always-way-0 (`wayPolicy` predict-mru / predict-static0). */
std::vector<GridPoint>
ablationGrid(const FigureOptions &opts)
{
    UnisonConfig fetch_all;
    fetch_all.wayPolicy = UnisonWayPolicy::FetchAll;
    UnisonConfig serial_tag;
    serial_tag.wayPolicy = UnisonWayPolicy::SerialTag;
    UnisonConfig pb31;
    pb31.pageBlocks = 31;
    UnisonConfig map_i;
    map_i.missPolicy = UnisonMissPolicy::MapI;
    UnisonConfig no_singleton;
    no_singleton.singletonEnabled = false;
    UnisonConfig no_fp;
    no_fp.footprintPredictionEnabled = false;
    UnisonConfig wp_mru;
    wp_mru.wayPolicy = UnisonWayPolicy::PredictMru;
    UnisonConfig wp_static;
    wp_static.wayPolicy = UnisonWayPolicy::PredictStatic0;

    std::vector<std::vector<GridPoint>> segments;
    for (Workload w : {Workload::DataServing, Workload::WebSearch,
                       Workload::DataAnalytics}) {
        SweepGrid grid(baseSpec(opts));
        grid.base().capacityBytes = 1_GiB;
        grid.overWorkloads({w}).over(
            "variant",
            {designValue("nocache", DesignKind::NoDramCache),
             designValue("baseline", UnisonConfig{}),
             designValue("fetch-all", fetch_all),
             designValue("serial-tag", serial_tag),
             designValue("pb31", pb31),
             designValue("map-i", map_i),
             designValue("no-singleton", no_singleton),
             designValue("no-footprint", no_fp),
             designValue("alloy-fp", AlloyFpConfig{}),
             designValue("wp-mru", wp_mru),
             designValue("wp-static0", wp_static)});
        segments.push_back(grid.points());
    }
    return concatGrids(segments);
}

// ------------------------------------------------------ alternatives

/** Sec. III-B: the rejected naive block/page combinations against the
 *  designs they splice together, plus the no-cache baseline. */
std::vector<GridPoint>
alternativesGrid(const FigureOptions &opts)
{
    SweepGrid grid(baseSpec(opts));
    grid.base().capacityBytes = 1_GiB;
    grid.overWorkloads({Workload::DataServing, Workload::WebSearch,
                        Workload::DataAnalytics})
        .overDesigns({DesignKind::NoDramCache, DesignKind::Alloy,
                      DesignKind::Footprint, DesignKind::NaiveBlockFp,
                      DesignKind::NaiveTaggedPage,
                      DesignKind::Unison});
    return grid.points();
}

// ------------------------------------------------------------ energy

/** Sec. V-D: row activations and dynamic DRAM energy per design (4 GB
 *  cache for TPC-H, 1 GB else). */
std::vector<GridPoint>
energyGrid(const FigureOptions &opts)
{
    std::vector<std::vector<GridPoint>> segments;
    for (Workload w : allWorkloads()) {
        SweepGrid grid(baseSpec(opts));
        grid.base().capacityBytes =
            (w == Workload::TpchQueries) ? 4_GiB : 1_GiB;
        grid.overWorkloads({w}).overDesigns(
            {DesignKind::Alloy, DesignKind::Footprint,
             DesignKind::Unison});
        segments.push_back(grid.points());
    }
    return concatGrids(segments);
}

// -------------------------------------------------------- analytical

/** The simulated arm of the conflict-model bench: Unison miss ratio
 *  vs associativity on two conflict-sensitive workloads, 128 MB. */
std::vector<GridPoint>
analyticalGrid(const FigureOptions &opts)
{
    SweepGrid grid(baseSpec(opts));
    grid.base().design = DesignKind::Unison;
    grid.base().capacityBytes = 128_MiB;
    grid.overWorkloads({Workload::WebServing, Workload::DataServing})
        .overKnob<std::uint32_t>(
            "assoc", {1, 2, 4, 8, 32},
            [](ExperimentSpec &spec, const std::uint32_t &assoc) {
                spec.design.as<UnisonConfig>().assoc = assoc;
            });
    return grid.points();
}

// ------------------------------------------------------------- mixes

std::vector<GridPoint>
defaultMixesGrid(const FigureOptions &opts)
{
    const int cores = 4;
    const std::uint64_t capacity = 256_MiB;
    std::uint64_t accesses = defaultAccessCount(capacity, opts.quick);
    accesses = std::max<std::uint64_t>(
        accesses - accesses % static_cast<std::uint64_t>(cores),
        static_cast<std::uint64_t>(cores));
    return mixesGrid(standardMixes(cores), capacity, accesses, cores,
                     opts);
}

// -------------------------------------------------------- datacenter

/**
 * Production-scale datacenter serving mixes: the three skewed-keyspace
 * scenarios (YCSB KV serving, DLRM embedding gathers, file serving)
 * plus a KV/file-server consolidation split, each at 4, 64 and 256
 * cores under Unison. This is the scale showcase the CloudSuite grids
 * never reach: a 256-core point tracks >= 1M distinct keys through the
 * O(active-set) page metadata and draws every key from the O(1)
 * two-level samplers. Quick mode shortens the runs 4x but keeps the
 * 256-core, million-key shape -- the CI byte-identity job runs it.
 */
std::vector<GridPoint>
datacenterGrid(const FigureOptions &opts)
{
    const std::uint64_t total = opts.quick ? 1'000'000 : 4'000'000;
    std::vector<std::vector<GridPoint>> segments;
    for (int cores : {4, 64, 256}) {
        const std::uint64_t accesses = std::max<std::uint64_t>(
            total - total % static_cast<std::uint64_t>(cores),
            static_cast<std::uint64_t>(cores));
        ExperimentSpec base = baseSpec(opts);
        base.capacityBytes = 512_MiB;
        base.accesses = accesses;
        base.design = DesignKind::Unison;
        base.system.numCores = cores;
        base.system.warmupAccesses = accesses / 2;
        base.system.perCoreAccessBudget =
            accesses / static_cast<std::uint64_t>(cores);

        const int first = (cores + 1) / 2;
        const int second = cores / 2;
        const std::vector<NamedMix> mixes = {
            {"ycsb-kv", {mixScenario(ScenarioKind::YcsbKv, cores)}},
            {"dlrm", {mixScenario(ScenarioKind::DlrmEmbed, cores)}},
            {"fileserve",
             {mixScenario(ScenarioKind::FileServe, cores)}},
            {"kv+fileserve",
             {mixScenario(ScenarioKind::YcsbKv, first),
              mixScenario(ScenarioKind::FileServe, second)}},
        };

        std::vector<SweepGrid::AxisValue> mix_axis;
        for (const NamedMix &mix : mixes)
            mix_axis.push_back(
                {mix.title, [parts = mix.parts](ExperimentSpec &spec) {
                     spec.mix = parts;
                 }});

        SweepGrid grid(base);
        grid.over("cores", {{"cores=" + std::to_string(cores),
                             [](ExperimentSpec &) {}}});
        grid.over("mix", std::move(mix_axis));
        segments.push_back(grid.points());
    }
    return concatGrids(segments);
}

// ------------------------------------------------------- convergence

/**
 * Measurement-window convergence: one pinned warm-up prefix per
 * (workload, design), crossed with growing measured windows. Every
 * point of a block shares its warm prefix, so the parallel runner
 * warms each block once, captures the boundary checkpoint and forks
 * the measurement runs from it -- the showcase (and the regression
 * canary) for warm-state checkpoint reuse. The data itself answers a
 * methodology question the paper's fixed two-thirds split sidesteps:
 * how long a measured window must be before the reported UIPC
 * stabilizes.
 */
std::vector<GridPoint>
convergenceGrid(const FigureOptions &opts)
{
    const std::uint64_t scale = opts.quick ? 8 : 1;
    const std::uint64_t warm = 4'000'000 / scale;
    const std::vector<std::pair<const char *, std::uint64_t>> windows =
        {{"win=0.5M", 500'000 / scale},
         {"win=1M", 1'000'000 / scale},
         {"win=2M", 2'000'000 / scale},
         {"win=4M", 4'000'000 / scale}};

    ExperimentSpec base = baseSpec(opts);
    base.capacityBytes = 128_MiB;
    base.system.warmupAccesses = warm;

    std::vector<SweepGrid::AxisValue> window_axis;
    for (const auto &[label, win] : windows)
        window_axis.push_back(
            {label, [total = warm + win](ExperimentSpec &spec) {
                 spec.accesses = total;
             }});

    std::vector<std::vector<GridPoint>> segments;
    for (Workload w : {Workload::WebServing, Workload::DataServing}) {
        SweepGrid grid(base);
        grid.overWorkloads({w})
            .overDesigns({DesignKind::Alloy, DesignKind::Unison})
            .over("window", window_axis);
        segments.push_back(grid.points());
    }
    return concatGrids(segments);
}

// -------------------------------------------------------- validation

/**
 * Fast-vs-detailed backend cross-validation: fig5/fig7-shaped points
 * (two CloudSuite workloads, a small and a large capacity, Alloy and
 * Unison) run under both memory backends. Consumers diff adjacent
 * backend pairs per point -- AMAT and UIPC deltas ARE the result: they
 * measure where the analytic model's error grows under contention
 * (bench/validation_backends.cpp prints the per-point table).
 */
std::vector<GridPoint>
validationGrid(const FigureOptions &opts)
{
    ExperimentSpec base = baseSpec(opts);
    base.system.numCores = 4;
    base.accesses = opts.quick ? 500'000 : 4'000'000;

    std::vector<SweepGrid::AxisValue> backend_axis;
    for (MemoryBackendKind kind :
         {MemoryBackendKind::Fast, MemoryBackendKind::Detailed})
        backend_axis.push_back(
            {memoryBackendId(kind), [kind](ExperimentSpec &spec) {
                 spec.system.memoryBackend = kind;
             }});

    SweepGrid grid(base);
    grid.overWorkloads({Workload::WebServing, Workload::DataServing})
        .overCapacities({128_MiB, 512_MiB})
        .overDesigns({DesignKind::Alloy, DesignKind::Unison})
        .over("backend", backend_axis);
    return grid.points();
}

// ------------------------------------------------------------- smoke

/** Seconds-scale CI grid: three designs at one small capacity. The
 *  checked-in specs/smoke.json export of this grid drives the
 *  shard/merge byte-identity job. */
std::vector<GridPoint>
smokeGrid(const FigureOptions &opts)
{
    ExperimentSpec base = baseSpec(opts);
    base.capacityBytes = 32_MiB;
    base.accesses = 150'000;
    base.system.numCores = 4;

    SweepGrid grid(base);
    grid.overWorkloads({Workload::WebServing})
        .overDesigns({DesignKind::NoDramCache, DesignKind::Alloy,
                      DesignKind::Unison});
    return grid.points();
}

struct FigureEntry
{
    const char *name;
    const char *summary;
    std::vector<GridPoint> (*build)(const FigureOptions &);
};

const FigureEntry kFigures[] = {
    {"fig5", "Unison miss ratio vs associativity (960B pages)",
     fig5Grid},
    {"fig6", "miss ratio vs capacity: Alloy / Footprint / Unison",
     fig6Grid},
    {"fig7", "CloudSuite speedup vs capacity over no-DRAM-cache",
     fig7Grid},
    {"fig7sens",
     "AC-vs-UC ordering vs page-level temporal reuse (companion)",
     sensitivityGrid},
    {"fig8", "TPC-H speedup, 1-8GB caches", fig8Grid},
    {"table5", "predictor accuracy per workload", table5Grid},
    {"ablation", "Unison design-choice ablations @ 1GB", ablationGrid},
    {"alternatives",
     "Sec. III-B naive block/page splices vs the real designs",
     alternativesGrid},
    {"analytical",
     "simulated Unison miss ratio vs associativity (conflict model)",
     analyticalGrid},
    {"energy",
     "Sec. V-D row activations and dynamic DRAM energy per design",
     energyGrid},
    {"mixes", "multiprogrammed consolidation mixes x designs",
     defaultMixesGrid},
    {"datacenter",
     "skewed-keyspace serving mixes at 4/64/256 cores under Unison",
     datacenterGrid},
    {"convergence",
     "UIPC vs measured-window length from one shared warm prefix",
     convergenceGrid},
    {"validation",
     "fast vs detailed memory backend: per-point AMAT/UIPC deltas",
     validationGrid},
    {"smoke", "seconds-scale CI grid (shard/merge identity checks)",
     smokeGrid},
};

} // namespace

const std::vector<std::string> &
figureNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const FigureEntry &entry : kFigures)
            out.push_back(entry.name);
        return out;
    }();
    return names;
}

std::string
figureSummary(const std::string &name)
{
    for (const FigureEntry &entry : kFigures)
        if (name == entry.name)
            return entry.summary;
    return "";
}

std::vector<GridPoint>
figureGrid(const std::string &name, const FigureOptions &opts)
{
    for (const FigureEntry &entry : kFigures)
        if (name == entry.name)
            return entry.build(opts);
    std::vector<std::string> known;
    for (const FigureEntry &entry : kFigures)
        known.push_back(entry.name);
    fatal("unknown figure '", name, "' (known figures: ",
          commaJoin(known), ")");
}

std::vector<NamedMix>
standardMixes(int cores)
{
    if (cores < 2)
        fatal("standardMixes needs a core count >= 2, got ", cores);
    // Odd counts give the first program the extra core; even counts
    // split exactly in half, matching the historical even-only tables.
    const int first = (cores + 1) / 2;
    const int second = cores / 2;
    return {
        {"web+tpch",
         {mixPreset(Workload::WebServing, first),
          mixPreset(Workload::TpchQueries, second)}},
        {"serving+analytics",
         {mixPreset(Workload::DataServing, first),
          mixPreset(Workload::DataAnalytics, second)}},
        {"scan+chase",
         {mixScenario(ScenarioKind::StreamScan, first),
          mixScenario(ScenarioKind::PointerChase, second)}},
        {"gups+web",
         {mixScenario(ScenarioKind::RandomUpdate, first),
          mixPreset(Workload::WebServing, second)}},
        {"prodcons",
         {mixScenario(ScenarioKind::ProducerConsumer, cores)}},
    };
}

std::vector<GridPoint>
mixesGrid(const std::vector<NamedMix> &mixes,
          std::uint64_t capacity_bytes, std::uint64_t accesses,
          int cores, const FigureOptions &opts)
{
    ExperimentSpec base;
    base.capacityBytes = capacity_bytes;
    base.accesses = accesses;
    base.seed = opts.seed;
    base.quick = opts.quick;
    base.system.numCores = cores;
    // Explicit measurement methodology: the first half of the
    // references only warms state, and every core gets the same
    // reference budget (fixed work per program).
    base.system.warmupAccesses = accesses / 2;
    base.system.perCoreAccessBudget =
        accesses / static_cast<std::uint64_t>(cores);

    std::vector<SweepGrid::AxisValue> mix_axis;
    for (const NamedMix &mix : mixes)
        mix_axis.push_back({mix.title,
                            [parts = mix.parts](ExperimentSpec &spec) {
                                spec.mix = parts;
                            }});

    SweepGrid grid(base);
    grid.over("mix", std::move(mix_axis));
    // NoDramCache first: it is the weighted-speedup baseline.
    grid.overDesigns({DesignKind::NoDramCache, DesignKind::Alloy,
                      DesignKind::Footprint, DesignKind::Unison});
    return grid.points();
}

} // namespace unison

/**
 * @file
 * The contracts of the declarative experiment API's serialization
 * layer: JSON spec/result round trips are byte-exact, unknown keys are
 * rejected loudly, the design registry is the single source of design
 * names/knobs/factories, and a spec that went through JSON reproduces
 * the design_contract_test golden counters bit-exactly.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/figures.hh"
#include "sim/spec_json.hh"

namespace unison {
namespace {

std::string
roundTripOnce(const ExperimentSpec &spec)
{
    return json::write(specToJson(spec));
}

/** Replace `needle` (which must be present) with `replacement`. */
std::string
mutateDocument(std::string text, const std::string &needle,
               const std::string &replacement)
{
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        throw std::logic_error("test needle not found: " + needle);
    text.replace(at, needle.size(), replacement);
    return text;
}

/** spec -> JSON -> spec -> JSON must be byte-stable. */
void
expectSpecRoundTrip(const ExperimentSpec &spec)
{
    const std::string first = roundTripOnce(spec);
    const ExperimentSpec reparsed = specFromJson(json::parse(first));
    const std::string second = roundTripOnce(reparsed);
    EXPECT_EQ(first, second);
}

TEST(SpecJson, EveryDesignRoundTrips)
{
    for (const DesignInfo &info : DesignRegistry::instance().all()) {
        SCOPED_TRACE(info.id);
        ExperimentSpec spec;
        spec.design = info.kind;
        spec.capacityBytes = 128_MiB;
        spec.accesses = 1000;
        expectSpecRoundTrip(spec);

        // Parsed spec keeps the design kind.
        const ExperimentSpec reparsed =
            specFromJson(json::parse(roundTripOnce(spec)));
        EXPECT_EQ(reparsed.designKind(), info.kind);
    }
}

TEST(SpecJson, KnobValuesSurviveTheRoundTrip)
{
    UnisonConfig config;
    config.pageBlocks = 31;
    config.assoc = 8;
    config.wayPolicy = UnisonWayPolicy::SerialTag;
    config.missPolicy = UnisonMissPolicy::MapI;
    config.footprintPredictionEnabled = false;
    config.fhtConfig.numEntries = 6 * 1024;
    config.wayPredictorIndexBits = 16;

    ExperimentSpec spec;
    spec.design = config;
    expectSpecRoundTrip(spec);

    const ExperimentSpec reparsed =
        specFromJson(json::parse(roundTripOnce(spec)));
    const UnisonConfig &u = reparsed.design.as<UnisonConfig>();
    EXPECT_EQ(u.pageBlocks, 31u);
    EXPECT_EQ(u.assoc, 8u);
    EXPECT_EQ(u.wayPolicy, UnisonWayPolicy::SerialTag);
    EXPECT_EQ(u.missPolicy, UnisonMissPolicy::MapI);
    EXPECT_FALSE(u.footprintPredictionEnabled);
    EXPECT_EQ(u.fhtConfig.numEntries, 6u * 1024u);
    EXPECT_EQ(u.wayPredictorIndexBits, 16u);
}

TEST(SpecJson, WayPredictorAblationRoundTrips)
{
    UnisonConfig config;
    config.wayPolicy = UnisonWayPolicy::PredictMru;
    ExperimentSpec spec;
    spec.design = config;
    expectSpecRoundTrip(spec);

    const std::string text = roundTripOnce(spec);
    EXPECT_NE(text.find("\"wayPolicy\": \"predict-mru\""),
              std::string::npos)
        << text;
    EXPECT_EQ(specFromJson(json::parse(text))
                  .design.as<UnisonConfig>()
                  .wayPolicy,
              UnisonWayPolicy::PredictMru);
}

TEST(SpecJson, RetiredUnisonWpDesignIsRejected)
{
    // The way-predictor ablations are `unison` wayPolicy values; the
    // old `unisonwp` id is an unknown design that names the real ones.
    const std::string text =
        mutateDocument(roundTripOnce(ExperimentSpec{}),
                       "\"name\": \"unison\"", "\"name\": \"unisonwp\"");
    try {
        specFromJson(json::parse(text));
        FAIL() << "design unisonwp should have been rejected";
    } catch (const json::Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unisonwp"), std::string::npos) << what;
        EXPECT_NE(what.find("registered designs"), std::string::npos)
            << what;
        EXPECT_NE(what.find("unison,"), std::string::npos) << what;
    }
}

TEST(SpecJson, CustomWorkloadAndMixRoundTrip)
{
    ExperimentSpec custom;
    custom.customWorkload = workloadParams(Workload::DataServing);
    custom.customWorkload->regionZipfAlpha = 1.1;
    custom.customWorkload->name = "tweaked";
    expectSpecRoundTrip(custom);

    ExperimentSpec mixed;
    mixed.mix = parseMixSpec("webserving:8,chase:4,scan:4");
    mixed.system.numCores = 16;
    mixed.system.warmupAccesses = 1000;
    mixed.accesses = 4000;
    expectSpecRoundTrip(mixed);

    const ExperimentSpec reparsed =
        specFromJson(json::parse(roundTripOnce(mixed)));
    ASSERT_EQ(reparsed.mix.size(), 3u);
    EXPECT_EQ(reparsed.mix[0].cores, 8);
    EXPECT_TRUE(reparsed.mix[0].preset.has_value());
    EXPECT_TRUE(reparsed.mix[1].scenario.has_value());
}

TEST(SpecJson, Fig7GridRoundTripsByteExactly)
{
    FigureOptions opts;
    opts.quick = true;
    const std::vector<GridPoint> points = figureGrid("fig7", opts);
    ASSERT_FALSE(points.empty());

    const std::string first = json::write(gridToJson("fig7", points));
    const GridFile grid = gridFromJson(json::parse(first));
    EXPECT_EQ(grid.name, "fig7");
    ASSERT_EQ(grid.points.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(grid.points[i].label, points[i].label);

    const std::string second =
        json::write(gridToJson(grid.name, grid.points));
    EXPECT_EQ(first, second);
}

TEST(SpecJson, UnknownKeysAreRejected)
{
    ExperimentSpec spec;
    json::Value doc = specToJson(spec);
    doc.set("turboMode", true);
    EXPECT_THROW(specFromJson(doc), json::Error);
}

TEST(SpecJson, UnknownDesignKnobIsRejected)
{
    ExperimentSpec spec;
    // A typo'd Unison knob must not silently run defaults.
    const std::string bad =
        mutateDocument(roundTripOnce(spec), "\"assoc\"", "\"asocc\"");
    EXPECT_THROW(specFromJson(json::parse(bad)), json::Error);
}

TEST(SpecJson, UnknownWorkloadTokenThrowsInsteadOfExiting)
{
    ExperimentSpec spec;
    const std::string text =
        mutateDocument(roundTripOnce(spec), "\"workload\": \"webserving\"",
                       "\"workload\": \"webservng\"");
    EXPECT_THROW(specFromJson(json::parse(text)), json::Error);
}

TEST(SpecJson, UnknownDesignNameIsRejected)
{
    ExperimentSpec spec;
    const std::string text =
        mutateDocument(roundTripOnce(spec), "\"name\": \"unison\"",
                       "\"name\": \"warpdrive\"");
    EXPECT_THROW(specFromJson(json::parse(text)), json::Error);
}

TEST(SpecJson, KnobRangeViolationsAreActionable)
{
    ExperimentSpec spec;
    const std::string text = mutateDocument(
        roundTripOnce(spec), "\"assoc\": 4", "\"assoc\": 999");
    try {
        specFromJson(json::parse(text));
        FAIL() << "assoc=999 should have been rejected";
    } catch (const json::Error &e) {
        EXPECT_NE(std::string(e.what()).find("assoc"),
                  std::string::npos);
    }
}

TEST(SpecJson, DuplicateJsonKeysAreRejected)
{
    EXPECT_THROW(json::parse("{\"a\": 1, \"a\": 2}"), json::Error);
}

// ------------------------------------------------- schema version

TEST(SpecJson, MemoryBackendRoundTrips)
{
    ExperimentSpec spec;
    spec.system.memoryBackend = MemoryBackendKind::Detailed;
    expectSpecRoundTrip(spec);

    const std::string text = roundTripOnce(spec);
    EXPECT_NE(text.find("\"schema\": \"unison-spec/5\""),
              std::string::npos);
    EXPECT_NE(text.find("\"memoryBackend\": \"detailed\""),
              std::string::npos);
    const ExperimentSpec reparsed = specFromJson(json::parse(text));
    EXPECT_EQ(reparsed.system.memoryBackend,
              MemoryBackendKind::Detailed);
}

TEST(SpecJson, OlderSpecSchemasAreRejectedWithAReExportHint)
{
    // Only unison-spec/5 is read. Every older version is an error that
    // names the current schema and the way to get a current document,
    // through both entry points (a spec inside a grid and a bare spec
    // handed to --spec).
    const std::string v5 = roundTripOnce(ExperimentSpec{});
    for (int version = 1; version <= 4; ++version) {
        const std::string old = "unison-spec/" + std::to_string(version);
        SCOPED_TRACE(old);
        const std::string text =
            mutateDocument(v5, "unison-spec/5", old);
        for (const bool as_grid : {false, true}) {
            try {
                if (as_grid)
                    gridFromJson(json::parse(text));
                else
                    specFromJson(json::parse(text));
                FAIL() << old << " must be rejected";
            } catch (const json::Error &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(old), std::string::npos) << what;
                EXPECT_NE(what.find("unison-spec/5"), std::string::npos)
                    << what;
                EXPECT_NE(what.find("--export-spec"), std::string::npos)
                    << what;
            }
        }
    }
}

TEST(SpecJson, RetiredEngineThreadCountIsAnUnknownSystemKey)
{
    // The system key that once chose the intra-experiment thread count
    // is gone; a v5 document carrying it fails like any typo'd key.
    // (Spelled in parts so the retired name appears only in docs.)
    const std::string retired = std::string("engine") + "Threads";
    const std::string text = mutateDocument(
        roundTripOnce(ExperimentSpec{}), "\"memoryBackend\": \"fast\"",
        "\"" + retired + "\": 1,\n    \"memoryBackend\": \"fast\"");
    try {
        specFromJson(json::parse(text));
        FAIL() << "system." << retired << " must be rejected";
    } catch (const json::Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown key '" + retired + "'"),
                  std::string::npos)
            << what;
    }
}

TEST(SpecJson, DatacenterAndPresetSpecsRoundTripAsV5)
{
    // A 1024-core datacenter mix (the widest core count, scenario
    // generator knobs) and the 16-core preset default both write the
    // one schema and round-trip byte-exactly.
    ExperimentSpec datacenter;
    datacenter.system.numCores = kMaxCores;
    datacenter.mix = {mixScenario(ScenarioKind::YcsbKv, kMaxCores)};
    datacenter.accesses = 4096;
    ExperimentSpec preset;
    ASSERT_EQ(preset.system.numCores, 16);
    for (const ExperimentSpec &spec : {datacenter, preset}) {
        expectSpecRoundTrip(spec);
        const std::string text = roundTripOnce(spec);
        EXPECT_NE(text.find("\"schema\": \"unison-spec/5\""),
                  std::string::npos);
    }

    const ExperimentSpec reparsed =
        specFromJson(json::parse(roundTripOnce(datacenter)));
    EXPECT_EQ(reparsed.system.numCores, kMaxCores);
    ASSERT_EQ(reparsed.mix.size(), 1u);
    EXPECT_EQ(reparsed.mix[0].cores, kMaxCores);
    ASSERT_TRUE(reparsed.mix[0].scenario.has_value());
    EXPECT_EQ(reparsed.mix[0].scenario->numKeys, 1ull << 20);
    EXPECT_EQ(reparsed.mix[0].scenario->recordBlocks, 16u);
}

TEST(SpecJson, UnknownMemoryBackendTokenIsRejected)
{
    const std::string text = mutateDocument(
        roundTripOnce(ExperimentSpec{}), "\"memoryBackend\": \"fast\"",
        "\"memoryBackend\": \"cycleexact\"");
    try {
        specFromJson(json::parse(text));
        FAIL() << "memoryBackend=cycleexact should have been rejected";
    } catch (const json::Error &e) {
        const std::string what = e.what();
        // The error names the offending token and the registered
        // backends, so a typo is immediately actionable.
        EXPECT_NE(what.find("cycleexact"), std::string::npos) << what;
        EXPECT_NE(what.find("fast"), std::string::npos) << what;
        EXPECT_NE(what.find("detailed"), std::string::npos) << what;
    }
}

TEST(SpecJson, QueueStatsRoundTripAndStayAbsentWhenZero)
{
    // Fast-backend results carry no queue counters, and their JSON
    // must stay byte-identical to the pre-backend-seam format (the
    // goldens pin this); detailed results append both queue objects.
    SimResult r;
    r.designName = "unison";
    const std::string plain = json::write(resultToJson(r));
    EXPECT_EQ(plain.find("offchipQueue"), std::string::npos);
    EXPECT_EQ(plain.find("stackedQueue"), std::string::npos);

    r.offchipQueue.writeDrains = 3;
    r.offchipQueue.drainedWrites = 24;
    r.offchipQueue.frfcfsReorders = 2;
    r.offchipQueue.occupancy[4] = 7;
    r.stackedQueue.starvationDrains = 1;
    const std::string first = json::write(resultToJson(r));
    EXPECT_NE(first.find("offchipQueue"), std::string::npos);
    EXPECT_NE(first.find("stackedQueue"), std::string::npos);

    const SimResult reparsed = resultFromJson(json::parse(first));
    EXPECT_EQ(json::write(resultToJson(reparsed)), first);
    EXPECT_EQ(reparsed.offchipQueue.drainedWrites, 24u);
    EXPECT_EQ(reparsed.offchipQueue.occupancy[4], 7u);
    EXPECT_EQ(reparsed.stackedQueue.starvationDrains, 1u);
}

// ---------------------------------------------------------- results

TEST(SpecJson, ResultRoundTripsByteExactly)
{
    ExperimentSpec spec;
    spec.capacityBytes = 32_MiB;
    spec.accesses = 60'000;
    spec.system.numCores = 4;
    const SimResult result = runExperiment(spec);

    const std::string first = json::write(resultToJson(result));
    const SimResult reparsed = resultFromJson(json::parse(first));
    const std::string second = json::write(resultToJson(reparsed));
    EXPECT_EQ(first, second);

    EXPECT_EQ(reparsed.cycles, result.cycles);
    EXPECT_EQ(reparsed.uipc, result.uipc);
    EXPECT_EQ(reparsed.cache.hits.value(), result.cache.hits.value());
    EXPECT_EQ(reparsed.perCore.size(), result.perCore.size());
}

TEST(SpecJson, ResultsDocumentSortsByIndex)
{
    ExperimentSpec spec;
    spec.capacityBytes = 32_MiB;
    spec.accesses = 50'000;
    spec.system.numCores = 2;
    const SimResult result = runExperiment(spec);

    std::vector<ResultPoint> points(2);
    points[0].index = 1;
    points[0].label = "b";
    points[0].spec = spec;
    points[0].result = result;
    points[1].index = 0;
    points[1].label = "a";
    points[1].spec = spec;
    points[1].result = result;

    std::string grid_name, shard, hash;
    const std::vector<ResultPoint> reparsed = resultsFromJson(
        json::parse(json::write(
            resultsToJson("g", "1/2", "cafe0123", std::move(points)))),
        &grid_name, &shard, &hash);
    EXPECT_EQ(grid_name, "g");
    EXPECT_EQ(shard, "1/2");
    EXPECT_EQ(hash, "cafe0123");
    ASSERT_EQ(reparsed.size(), 2u);
    EXPECT_EQ(reparsed[0].index, 0u);
    EXPECT_EQ(reparsed[0].label, "a");
    EXPECT_EQ(reparsed[1].index, 1u);
}

// --------------------------------------------------------- registry

TEST(DesignRegistryTable, SingleSourceOfNames)
{
    const DesignRegistry &registry = DesignRegistry::instance();
    EXPECT_EQ(registry.all().size(), 8u);
    EXPECT_EQ(designName(DesignKind::Unison), "Unison Cache");
    EXPECT_EQ(designId(DesignKind::AlloyFp), "alloyfp");
    EXPECT_EQ(designId(DesignKind::NoDramCache), "nocache");
    EXPECT_EQ(registry.find("Unison Cache")->id, "unison");
    EXPECT_EQ(registry.find("ALLOY")->kind, DesignKind::Alloy);
    EXPECT_EQ(registry.find("no-such-design"), nullptr);
}

TEST(DesignRegistryTable, DuplicateRegistrationThrows)
{
    DesignRegistry &registry = DesignRegistry::instance();
    DesignInfo dup = registry.byKind(DesignKind::Alloy);
    // Same id.
    EXPECT_THROW(registry.add(dup), std::invalid_argument);
    // Fresh id but an already-registered kind.
    dup.id = "alloytwo";
    dup.name = "Alloy Cache Two";
    dup.shortName = "Alloy2";
    EXPECT_THROW(registry.add(dup), std::invalid_argument);
}

TEST(DesignRegistryTable, RegistrationNeedsIdAndFactory)
{
    DesignInfo empty;
    EXPECT_THROW(DesignRegistry::instance().add(empty),
                 std::invalid_argument);
}

TEST(DesignRegistryTable, DefaultConfigMatchesKind)
{
    for (const DesignInfo &info : DesignRegistry::instance().all()) {
        const DesignConfig config(info.kind);
        EXPECT_EQ(config.kind(), info.kind);
    }
}

// ----------------------------------------------------- golden pins

/**
 * The design_contract_test golden counters, reproduced through a full
 * JSON round trip of each spec: serializing and reparsing a spec must
 * change nothing about the simulation it describes. The values are
 * the same pre-refactor pins design_contract_test.cpp carries.
 */
struct GoldenRow
{
    DesignKind kind;
    std::uint64_t cycles, hits, misses, offchipReads, stackedAccesses;
};

TEST(SpecJsonGolden, JsonRoundTrippedSpecsReproduceContractCounters)
{
    const GoldenRow golden[] = {
        {DesignKind::Unison, 270247ull, 3543ull, 1182ull, 13395ull,
         10055ull},
        {DesignKind::Alloy, 167742ull, 0ull, 4761ull, 3564ull, 9528ull},
        {DesignKind::Footprint, 337884ull, 3818ull, 894ull, 21824ull,
         4500ull},
        {DesignKind::NaiveBlockFp, 280420ull, 3540ull, 1196ull,
         13833ull, 20498ull},
        {DesignKind::NaiveTaggedPage, 360976ull, 3794ull, 948ull,
         19433ull, 5283ull},
        {DesignKind::Ideal, 164038ull, 4771ull, 0ull, 0ull, 4771ull},
        {DesignKind::NoDramCache, 164057ull, 0ull, 4777ull, 3579ull,
         0ull},
    };

    for (const GoldenRow &g : golden) {
        ExperimentSpec spec;
        spec.design = g.kind;
        spec.capacityBytes = 64_MiB;
        spec.accesses = 300'000;
        spec.seed = 7;

        const ExperimentSpec reparsed =
            specFromJson(json::parse(json::write(specToJson(spec))));
        const SimResult r = runExperiment(reparsed);

        SCOPED_TRACE(designName(g.kind));
        EXPECT_EQ(r.cycles, g.cycles);
        EXPECT_EQ(r.cache.hits.value(), g.hits);
        EXPECT_EQ(r.cache.misses.value(), g.misses);
        EXPECT_EQ(r.offchip.reads, g.offchipReads);
        EXPECT_EQ(r.stacked.reads + r.stacked.writes,
                  g.stackedAccesses);
    }
}

} // namespace
} // namespace unison

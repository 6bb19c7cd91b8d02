/**
 * @file
 * Registry entry for Unison Cache. The cache body itself is
 * header-resident in unison_cache.hh; this file only describes the
 * design -- names, knobs, validation, factory -- to the design
 * registry.
 */

#include "core/unison_cache.hh"

#include "sim/design_registry.hh"

namespace unison {

DesignInfo
unisonDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::Unison;
    info.id = "unison";
    info.name = "Unison Cache";
    info.shortName = "Unison";
    info.summary = "page-based, 4-way, in-DRAM tags read in unison "
                   "with the data (the paper's design)";
    info.defaults = UnisonConfig{};
    info.knobs = {
        knobUInt<UnisonConfig>(
            "pageBlocks", "blocks per page (15 = 960B, 31 = 1984B)",
            &UnisonConfig::pageBlocks, 1, kMaxPageBlocks),
        knobUInt<UnisonConfig>("assoc", "set associativity",
                               &UnisonConfig::assoc, 1, 32),
        knobEnum<UnisonConfig>(
            "wayPolicy",
            "way location (predict = the paper's hashed predictor)",
            &UnisonConfig::wayPolicy,
            {{"predict", UnisonWayPolicy::Predict},
             {"predict-mru", UnisonWayPolicy::PredictMru},
             {"predict-static0", UnisonWayPolicy::PredictStatic0},
             {"fetch-all", UnisonWayPolicy::FetchAll},
             {"serial-tag", UnisonWayPolicy::SerialTag}}),
        knobEnum<UnisonConfig>(
            "missPolicy", "hit speculation: always-hit / map-i",
            &UnisonConfig::missPolicy,
            {{"always-hit", UnisonMissPolicy::AlwaysHit},
             {"map-i", UnisonMissPolicy::MapI}}),
        knobBool<UnisonConfig>(
            "footprintPrediction",
            "fetch predicted footprints (false: whole pages)",
            &UnisonConfig::footprintPredictionEnabled),
        knobBool<UnisonConfig>(
            "singletonPrediction",
            "bypass pages predicted to be singletons",
            &UnisonConfig::singletonEnabled),
        knobUIntFn<UnisonConfig, std::uint32_t>(
            "fhtEntries", "footprint history table entries",
            [](UnisonConfig &c) -> std::uint32_t & {
                return c.fhtConfig.numEntries;
            },
            1, 1u << 24),
        knobUIntFn<UnisonConfig, std::uint32_t>(
            "fhtAssoc", "footprint history table associativity",
            [](UnisonConfig &c) -> std::uint32_t & {
                return c.fhtConfig.assoc;
            },
            1, 64),
        knobUInt<UnisonConfig>(
            "wayPredictorIndexBits",
            "way predictor index width (0 = paper sizing)",
            &UnisonConfig::wayPredictorIndexBits, 0, 24),
    };
    info.validate = [](const DesignVariant &v,
                       const DesignBuildContext &) -> std::string {
        const UnisonConfig &c = std::get<UnisonConfig>(v);
        if (std::string fht = validateFhtShape(c.fhtConfig); !fht.empty())
            return fht;
        if (c.wayPredictorIndexBits != 0 && c.wayPredictorIndexBits < 4)
            return "wayPredictorIndexBits must be 0 (auto) or >= 4";
        return "";
    };
    info.build = [](const DesignVariant &v,
                    const DesignBuildContext &ctx,
                    MemoryBackend *offchip) -> std::unique_ptr<DramCache> {
        UnisonConfig cfg = std::get<UnisonConfig>(v);
        cfg.capacityBytes = ctx.capacityBytes;
        cfg.stackedOrg.backend = ctx.backend;
        cfg.numCores = ctx.numCores;
        return std::make_unique<UnisonCache>(cfg, offchip);
    };
    return info;
}

} // namespace unison

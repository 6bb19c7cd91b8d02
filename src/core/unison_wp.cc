/**
 * @file
 * Registry entry for the `unisonwp` composition (see unison_wp.hh).
 * The knob table is Unison's, plus the predictor-selection knob --
 * the point of the policy framework is that this whole design is
 * described here and composed from existing parts.
 */

#include "core/unison_wp.hh"

#include "sim/design_registry.hh"

namespace unison {

DesignInfo
unisonWpDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::UnisonWp;
    info.id = "unisonwp";
    info.name = "Unison-WP";
    info.shortName = "UnisonWP";
    info.summary = "composed ablation: the Unison body with the way "
                   "predictor swapped via knob (hashed / mru / static0)";
    info.defaults = UnisonWpConfig{};
    info.knobs = {
        knobEnum<UnisonWpConfig, UnisonWayPredictorKind>(
            "wayPredictor",
            "way predictor: hashed (paper) / mru / static0",
            &UnisonWpConfig::wayPredictorKind,
            {{"hashed", UnisonWayPredictorKind::Hashed},
             {"mru", UnisonWayPredictorKind::Mru},
             {"static0", UnisonWayPredictorKind::Static0}}),
        knobUInt<UnisonWpConfig, std::uint32_t>(
            "pageBlocks", "blocks per page (15 = 960B, 31 = 1984B)",
            &UnisonWpConfig::pageBlocks, 1, kMaxPageBlocks),
        knobUInt<UnisonWpConfig, std::uint32_t>(
            "assoc", "set associativity", &UnisonWpConfig::assoc, 1,
            32),
        knobEnum<UnisonWpConfig, UnisonMissPolicy>(
            "missPolicy", "hit speculation: always-hit / map-i",
            &UnisonWpConfig::missPolicy,
            {{"always-hit", UnisonMissPolicy::AlwaysHit},
             {"map-i", UnisonMissPolicy::MapI}}),
        knobBool<UnisonWpConfig>(
            "footprintPrediction",
            "fetch predicted footprints (false: whole pages)",
            &UnisonWpConfig::footprintPredictionEnabled),
        knobBool<UnisonWpConfig>(
            "singletonPrediction",
            "bypass pages predicted to be singletons",
            &UnisonWpConfig::singletonEnabled),
        knobUIntFn<UnisonWpConfig, std::uint32_t>(
            "fhtEntries", "footprint history table entries",
            [](UnisonWpConfig &c) -> std::uint32_t & {
                return c.fhtConfig.numEntries;
            },
            1, 1u << 24),
        knobUIntFn<UnisonWpConfig, std::uint32_t>(
            "fhtAssoc", "footprint history table associativity",
            [](UnisonWpConfig &c) -> std::uint32_t & {
                return c.fhtConfig.assoc;
            },
            1, 64),
        knobUInt<UnisonWpConfig, std::uint32_t>(
            "wayPredictorIndexBits",
            "hashed-predictor index width (0 = paper sizing)",
            &UnisonWpConfig::wayPredictorIndexBits, 0, 24),
    };
    info.validate = [](const DesignVariant &v,
                       const DesignBuildContext &) -> std::string {
        return validateUnisonKnobs(std::get<UnisonWpConfig>(v));
    };
    info.build = [](const DesignVariant &v,
                    const DesignBuildContext &ctx,
                    MemoryBackend *offchip) -> std::unique_ptr<DramCache> {
        UnisonWpConfig cfg = std::get<UnisonWpConfig>(v);
        cfg.capacityBytes = ctx.capacityBytes;
        cfg.stackedOrg.backend = ctx.backend;
        cfg.numCores = ctx.numCores;
        return std::make_unique<UnisonWpCache>(cfg, offchip);
    };
    return info;
}

} // namespace unison

/**
 * @file
 * The design registry: one table mapping every DRAM-cache design to
 * its typed configuration, its names, its tunable knobs and its
 * factory. This is the single source of truth the rest of the repo
 * derives from --
 *
 *  - `ExperimentSpec` holds a design's typed config (the same
 *    `UnisonConfig`/`AlloyConfig`/... structs the caches are
 *    constructed from) in one `DesignVariant`, instead of smearing
 *    per-design knobs across a flat struct;
 *  - `makeCacheFactory` builds the cache through the registered
 *    factory (no `DesignKind` switch anywhere else);
 *  - display names (`designName`), CLI `--design` parsing and bench
 *    column labels all read the same table entries;
 *  - the JSON spec schema serializes a design as its registry id plus
 *    its knob table, with unknown knobs rejected.
 *
 * Each design defines its own `DesignInfo` next to its implementation
 * (the baselines/ and core/ source files) and the registry pulls them
 * in once on first use. The variant is deliberately closed: adding a
 * design means one new source file plus a DesignKind enumerator, a
 * DesignVariant alternative and an add() call here (see README
 * "Adding a new cache design"); add() rejects duplicate ids and kinds
 * so every registered design stays reachable.
 */

#ifndef UNISON_SIM_DESIGN_REGISTRY_HH
#define UNISON_SIM_DESIGN_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "baselines/alloy_cache.hh"
#include "baselines/footprint_cache.hh"
#include "baselines/ideal_cache.hh"
#include "baselines/lohhill_cache.hh"
#include "baselines/naive_tagged_page.hh"
#include "baselines/no_cache.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/alloy_fp.hh"
#include "core/unison_cache.hh"

namespace unison {

/** The designs the paper evaluates. Enumerator order must match the
 *  `DesignVariant` alternative order (checked by static_asserts in
 *  design_registry.cc). */
enum class DesignKind
{
    Unison,
    Alloy,
    Footprint,
    LohHill,  //!< Loh & Hill MICRO'11 (Sec. II-A discussion baseline)
    NaiveBlockFp,     //!< Sec. III-B.1 rejected design (Fig. 4a)
    NaiveTaggedPage,  //!< Sec. III-B.2 rejected design (Fig. 4b)
    Ideal,
    NoDramCache,
    AlloyFp, //!< composed: block cache + footprint-grouped prefetch
};

/**
 * The typed per-design configuration: exactly the struct the concrete
 * cache is constructed from. The spec-level fields every design shares
 * (capacityBytes, numCores, the stacked-DRAM organization) are
 * overridden from the ExperimentSpec when the cache is built, so sweep
 * axes like capacity never have to reach into the variant.
 */
using DesignVariant =
    std::variant<UnisonConfig, AlloyConfig, FootprintCacheConfig,
                 LohHillConfig, NaiveBlockFpConfig,
                 NaiveTaggedPageConfig, IdealConfig, NoCacheConfig,
                 AlloyFpConfig>;

/** Spec-level values the factory folds into the design config. */
struct DesignBuildContext
{
    std::uint64_t capacityBytes = 0;
    int numCores = 16;
    /** Timing model for the design's stacked pool (the build functions
     *  fold it into stackedOrg before constructing the pool). */
    MemoryBackendKind backend = MemoryBackendKind::Fast;
};

/**
 * One tunable of a design, as exposed in the JSON spec schema: a
 * stable key, a getter (serialization) and a range-checked setter
 * (parsing). The knob table *is* the design's public configuration
 * surface; anything not listed is an internal default.
 */
struct DesignKnob
{
    std::string key;
    std::string help;
    std::string type;  //!< "uint" | "bool" | "enum" (for --knobs)
    std::string range; //!< human-readable valid range / value set
    std::function<json::Value(const DesignVariant &)> get;
    /** Throws json::Error on a bad value. */
    std::function<void(DesignVariant &, const json::Value &)> set;
};

/** Everything the registry knows about one design. */
struct DesignInfo
{
    DesignKind kind = DesignKind::Unison;
    std::string id;        //!< canonical JSON/CLI token ("unison")
    std::string name;      //!< paper-style full name ("Unison Cache")
    std::string shortName; //!< bench column label ("Unison")
    std::string summary;   //!< one-liner for `unison_sim --list`
    DesignVariant defaults;
    std::vector<DesignKnob> knobs;

    /** Optional config validation: "" when fine, else an actionable
     *  message (ExperimentSpec::validationError appends context). */
    std::function<std::string(const DesignVariant &,
                              const DesignBuildContext &)>
        validate;

    /** Build the cache for a (config, spec context) pair. */
    std::function<std::unique_ptr<DramCache>(
        const DesignVariant &, const DesignBuildContext &,
        MemoryBackend *offchip)>
        build;
};

/**
 * The process-wide design table. Lookups are read-only after the
 * built-ins register on first use (thread-safe magic static); add()
 * throws std::invalid_argument on a duplicate id/name/kind.
 */
class DesignRegistry
{
  public:
    static DesignRegistry &instance();

    void add(DesignInfo info);

    /** Lookup by id or display name (case/punctuation-insensitive via
     *  normalizedNameKey); nullptr when unknown. */
    const DesignInfo *find(const std::string &id_or_name) const;

    /** find() that fails with a fatal() listing the registered ids --
     *  the CLI-facing variant. */
    const DesignInfo &byId(const std::string &id_or_name) const;

    const DesignInfo &byKind(DesignKind kind) const;

    /** All designs in registration order (paper order for built-ins). */
    const std::vector<DesignInfo> &all() const { return infos_; }

  private:
    DesignRegistry() = default;
    std::vector<DesignInfo> infos_;
};

/**
 * The design slot of an ExperimentSpec: a DesignVariant with
 * conversions that keep sweep code terse. `spec.design =
 * DesignKind::Alloy` selects a design with registry defaults;
 * `spec.design = my_unison_config` installs a fully custom config;
 * `spec.design.as<UnisonConfig>().assoc = 8` tweaks one knob.
 */
class DesignConfig
{
  public:
    DesignConfig() : v_(UnisonConfig{}) {}
    DesignConfig(DesignKind kind); //!< registry defaults (implicit)
    explicit DesignConfig(DesignVariant v) : v_(std::move(v)) {}
    DesignConfig(UnisonConfig c) : v_(std::move(c)) {}
    DesignConfig(AlloyConfig c) : v_(std::move(c)) {}
    DesignConfig(FootprintCacheConfig c) : v_(std::move(c)) {}
    DesignConfig(LohHillConfig c) : v_(std::move(c)) {}
    DesignConfig(NaiveBlockFpConfig c) : v_(std::move(c)) {}
    DesignConfig(NaiveTaggedPageConfig c) : v_(std::move(c)) {}
    DesignConfig(IdealConfig c) : v_(std::move(c)) {}
    DesignConfig(NoCacheConfig c) : v_(std::move(c)) {}
    DesignConfig(AlloyFpConfig c) : v_(std::move(c)) {}

    DesignKind
    kind() const
    {
        return static_cast<DesignKind>(v_.index());
    }

    template <typename T>
    T &
    as()
    {
        T *cfg = std::get_if<T>(&v_);
        if (cfg == nullptr)
            panic("DesignConfig holds a different design's config");
        return *cfg;
    }

    template <typename T>
    const T &
    as() const
    {
        const T *cfg = std::get_if<T>(&v_);
        if (cfg == nullptr)
            panic("DesignConfig holds a different design's config");
        return *cfg;
    }

    DesignVariant &variant() { return v_; }
    const DesignVariant &variant() const { return v_; }

  private:
    DesignVariant v_;
};

/** Paper-style display name, driven by the registry table. */
std::string designName(DesignKind kind);

/** Canonical id token ("unison"), driven by the registry table. */
std::string designId(DesignKind kind);

/** @name Built-in design table entries
 * Defined next to each design's implementation; the registry calls
 * them exactly once. A new design adds its info function here (plus
 * its DesignKind enumerator and DesignVariant alternative above).
 */
/**@{*/
DesignInfo unisonDesignInfo();          // src/core/unison_cache.cc
DesignInfo alloyDesignInfo();           // src/baselines/alloy_cache.cc
DesignInfo footprintDesignInfo();       // src/baselines/footprint_cache.cc
DesignInfo lohHillDesignInfo();         // src/baselines/lohhill_cache.cc
DesignInfo naiveBlockFpDesignInfo();    // src/core/alloy_fp.cc
DesignInfo naiveTaggedPageDesignInfo(); // src/baselines/naive_tagged_page.cc
DesignInfo idealDesignInfo();           // src/baselines/simple_designs.cc
DesignInfo noCacheDesignInfo();         // src/baselines/simple_designs.cc
DesignInfo alloyFpDesignInfo();         // src/core/alloy_fp.cc
/**@}*/

/** @name Knob-table helpers
 * Build the common knob shapes from a member pointer (or a pair of
 * accessors for nested members) with range checking; design files
 * compose their knob tables from these.
 */
/**@{*/

template <typename Cfg, typename T>
DesignKnob
knobUInt(const char *key, const char *help, T Cfg::*member,
         std::uint64_t lo, std::uint64_t hi)
{
    DesignKnob k;
    k.key = key;
    k.help = help;
    k.type = "uint";
    k.range = "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    k.get = [member](const DesignVariant &v) {
        return json::Value(
            static_cast<std::uint64_t>(std::get<Cfg>(v).*member));
    };
    k.set = [member, key = std::string(key), lo, hi](
                DesignVariant &v, const json::Value &in) {
        const std::uint64_t value = in.asUint();
        if (value < lo || value > hi)
            throw json::Error("knob '" + key + "' must be in [" +
                              std::to_string(lo) + ", " +
                              std::to_string(hi) + "], got " +
                              std::to_string(value));
        std::get<Cfg>(v).*member = static_cast<T>(value);
    };
    return k;
}

template <typename Cfg>
DesignKnob
knobBool(const char *key, const char *help, bool Cfg::*member)
{
    DesignKnob k;
    k.key = key;
    k.help = help;
    k.type = "bool";
    k.range = "true | false";
    k.get = [member](const DesignVariant &v) {
        return json::Value(std::get<Cfg>(v).*member);
    };
    k.set = [member](DesignVariant &v, const json::Value &in) {
        std::get<Cfg>(v).*member = in.asBool();
    };
    return k;
}

template <typename Cfg, typename E>
DesignKnob
knobEnum(const char *key, const char *help, E Cfg::*member,
         std::vector<std::pair<std::string, E>> values)
{
    DesignKnob k;
    k.key = key;
    k.help = help;
    k.type = "enum";
    {
        std::vector<std::string> names;
        for (const auto &[name, e] : values)
            names.push_back(name);
        k.range = commaJoin(names);
    }
    k.get = [member, values](const DesignVariant &v) {
        const E current = std::get<Cfg>(v).*member;
        for (const auto &[name, e] : values)
            if (e == current)
                return json::Value(name);
        panic("enum knob value has no name");
    };
    k.set = [member, values, key = std::string(key)](
                DesignVariant &v, const json::Value &in) {
        const std::string &name = in.asString();
        for (const auto &[candidate, e] : values) {
            if (candidate == name) {
                std::get<Cfg>(v).*member = e;
                return;
            }
        }
        std::vector<std::string> known;
        for (const auto &[candidate, e] : values)
            known.push_back(candidate);
        throw json::Error("knob '" + key + "': unknown value '" + name +
                          "' (one of: " + commaJoin(known) + ")");
    };
    return k;
}

/** Nested-member variant of knobUInt (e.g. fhtConfig.numEntries). */
template <typename Cfg, typename T>
DesignKnob
knobUIntFn(const char *key, const char *help,
           std::function<T &(Cfg &)> access, std::uint64_t lo,
           std::uint64_t hi)
{
    DesignKnob k;
    k.key = key;
    k.help = help;
    k.type = "uint";
    k.range = "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    k.get = [access](const DesignVariant &v) {
        Cfg cfg = std::get<Cfg>(v);
        return json::Value(static_cast<std::uint64_t>(access(cfg)));
    };
    k.set = [access, key = std::string(key), lo, hi](
                DesignVariant &v, const json::Value &in) {
        const std::uint64_t value = in.asUint();
        if (value < lo || value > hi)
            throw json::Error("knob '" + key + "' must be in [" +
                              std::to_string(lo) + ", " +
                              std::to_string(hi) + "], got " +
                              std::to_string(value));
        access(std::get<Cfg>(v)) = static_cast<T>(value);
    };
    return k;
}

/**@}*/

} // namespace unison

#endif // UNISON_SIM_DESIGN_REGISTRY_HH

#include "sim/design_registry.hh"

#include <mutex>
#include <type_traits>

#include "trace/presets.hh"

namespace unison {

// The DesignKind <-> DesignVariant correspondence DesignConfig::kind()
// relies on.
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::Unison),
                                 DesignVariant>,
                             UnisonConfig>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::Alloy),
                                 DesignVariant>,
                             AlloyConfig>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::Footprint),
                                 DesignVariant>,
                             FootprintCacheConfig>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::LohHill),
                                 DesignVariant>,
                             LohHillConfig>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::NaiveBlockFp),
                                 DesignVariant>,
                             NaiveBlockFpConfig>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::NaiveTaggedPage),
                                 DesignVariant>,
                             NaiveTaggedPageConfig>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::Ideal),
                                 DesignVariant>,
                             IdealConfig>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::NoDramCache),
                                 DesignVariant>,
                             NoCacheConfig>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     DesignKind::AlloyFp),
                                 DesignVariant>,
                             AlloyFpConfig>);

DesignRegistry &
DesignRegistry::instance()
{
    // Built-ins register exactly once, in the paper's presentation
    // order; each DesignInfo lives in the design's own source file.
    static DesignRegistry registry = [] {
        DesignRegistry r;
        r.add(unisonDesignInfo());
        r.add(alloyDesignInfo());
        r.add(footprintDesignInfo());
        r.add(lohHillDesignInfo());
        r.add(naiveBlockFpDesignInfo());
        r.add(naiveTaggedPageDesignInfo());
        r.add(alloyFpDesignInfo());
        r.add(idealDesignInfo());
        r.add(noCacheDesignInfo());
        return r;
    }();
    return registry;
}

void
DesignRegistry::add(DesignInfo info)
{
    if (info.id.empty() || !info.build)
        throw std::invalid_argument(
            "design registration needs an id and a build function");
    if (info.id != normalizedNameKey(info.id))
        throw std::invalid_argument(
            "design id '" + info.id +
            "' must be lowercase alphanumeric");
    // find() resolves by id, name and shortName, so all three must be
    // collision-free or a lookup would silently hit the wrong design.
    const auto clashes = [](const DesignInfo &a, const DesignInfo &b) {
        const std::string keys_a[] = {a.id, normalizedNameKey(a.name),
                                      normalizedNameKey(a.shortName)};
        const std::string keys_b[] = {b.id, normalizedNameKey(b.name),
                                      normalizedNameKey(b.shortName)};
        for (const std::string &ka : keys_a)
            for (const std::string &kb : keys_b)
                if (!ka.empty() && ka == kb)
                    return true;
        return false;
    };
    for (const DesignInfo &existing : infos_) {
        if (clashes(existing, info))
            throw std::invalid_argument(
                "design '" + info.id +
                "' collides with registered design '" + existing.id +
                "' (ids, names and short names must all be unique)");
        if (existing.kind == info.kind)
            throw std::invalid_argument(
                "design kind of '" + info.id +
                "' is already registered as '" + existing.id + "'");
    }
    infos_.push_back(std::move(info));
}

const DesignInfo *
DesignRegistry::find(const std::string &id_or_name) const
{
    const std::string key = normalizedNameKey(id_or_name);
    for (const DesignInfo &info : infos_) {
        if (info.id == key || normalizedNameKey(info.name) == key ||
            normalizedNameKey(info.shortName) == key)
            return &info;
    }
    return nullptr;
}

const DesignInfo &
DesignRegistry::byId(const std::string &id_or_name) const
{
    const DesignInfo *info = find(id_or_name);
    if (info != nullptr)
        return *info;
    std::vector<std::string> known;
    for (const DesignInfo &candidate : infos_)
        known.push_back(candidate.id);
    fatal("unknown design '", id_or_name, "' (registered designs: ",
          commaJoin(known), ")");
}

const DesignInfo &
DesignRegistry::byKind(DesignKind kind) const
{
    for (const DesignInfo &info : infos_)
        if (info.kind == kind)
            return info;
    panic("design kind ", static_cast<int>(kind),
          " has no registry entry");
}

DesignConfig::DesignConfig(DesignKind kind)
    : v_(DesignRegistry::instance().byKind(kind).defaults)
{
}

std::string
designName(DesignKind kind)
{
    return DesignRegistry::instance().byKind(kind).name;
}

std::string
designId(DesignKind kind)
{
    return DesignRegistry::instance().byKind(kind).id;
}

} // namespace unison

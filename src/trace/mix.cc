#include "trace/mix.hh"

#include <cstdlib>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "trace/tracefile.hh"

namespace unison {

namespace {

/** Private regions are padded to 1 GiB so no two processes ever share
 *  a DRAM row, a cache set alias, or a 2 KB footprint region. */
constexpr Addr kMixAlign = 1ull << 30;

/** Synthetic/scenario private regions start at 64 TiB: trace parts
 *  replay captured *absolute* physical addresses, which live far
 *  below this, so generated regions can never collide with them. */
constexpr Addr kMixPrivateBase = 1ull << 46;

Addr
alignUp(Addr v)
{
    return (v + kMixAlign - 1) & ~(kMixAlign - 1);
}

int
validatedKinds(const MixPart &part)
{
    return (part.preset.has_value() ? 1 : 0) +
           (part.custom.has_value() ? 1 : 0) +
           (part.scenario.has_value() ? 1 : 0) +
           (part.tracePath.empty() ? 0 : 1);
}

/** Bytes of private address space one core of this part needs. */
Addr
privateSpan(const MixPart &part)
{
    if (part.preset)
        return workloadParams(*part.preset).datasetBytes;
    if (part.custom)
        return part.custom->datasetBytes;
    if (part.scenario)
        return part.scenario->footprintBytes;
    return 0; // trace files carry absolute addresses
}

} // namespace

std::string
MixPart::label() const
{
    if (preset)
        return workloadName(*preset);
    if (custom)
        return custom->name;
    if (scenario)
        return scenarioName(scenario->kind);
    if (!tracePath.empty())
        return "trace:" + tracePath;
    return "empty";
}

MixPart
mixPreset(Workload w, int cores)
{
    MixPart part;
    part.cores = cores;
    part.preset = w;
    return part;
}

MixPart
mixScenario(ScenarioKind kind, int cores)
{
    MixPart part;
    part.cores = cores;
    part.scenario = scenarioParams(kind);
    return part;
}

MixPart
mixCustom(const WorkloadParams &params, int cores)
{
    MixPart part;
    part.cores = cores;
    part.custom = params;
    return part;
}

std::vector<MixPart>
parseMixSpec(const std::string &text)
{
    std::vector<MixPart> parts;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string token = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            fatal("empty element in mix spec '", text, "'");

        int cores = 1;
        const std::size_t colon = token.rfind(':');
        if (colon != std::string::npos) {
            const std::string count = token.substr(colon + 1);
            char *end = nullptr;
            const long v = std::strtol(count.c_str(), &end, 10);
            if (end == count.c_str() || *end != '\0' || v < 1 ||
                v > kMaxCores) {
                fatal("bad core count '", count, "' in mix spec '",
                      text, "' (must be 1..", kMaxCores, ")");
            }
            cores = static_cast<int>(v);
            token = token.substr(0, colon);
        }

        ScenarioKind kind;
        if (scenarioFromName(token, kind))
            parts.push_back(mixScenario(kind, cores));
        else
            parts.push_back(mixPreset(workloadFromName(token), cores));

        if (comma == text.size())
            break;
    }
    if (parts.empty())
        fatal("empty mix spec");
    return parts;
}

std::string
mixName(const std::vector<MixPart> &parts)
{
    std::string name;
    for (const MixPart &part : parts) {
        if (!name.empty())
            name += "+";
        name += normalizedNameKey(part.label()) + ":" +
                std::to_string(part.cores);
    }
    return name;
}

MixedWorkload::MixedWorkload(const std::vector<MixPart> &parts,
                             int num_cores, std::uint64_t seed)
{
    UNISON_ASSERT(!parts.empty(), "mix with no parts");
    int total = 0;
    for (const MixPart &part : parts) {
        if (part.cores < 1)
            fatal("mix part '", part.label(), "' assigned ",
                  part.cores, " cores");
        if (validatedKinds(part) != 1)
            fatal("mix part must set exactly one of "
                  "preset/custom/scenario/tracePath");
        total += part.cores;
    }
    if (total != num_cores)
        fatal("mix assigns ", total, " cores but the system has ",
              num_cores);

    // Pass 1: lay out disjoint private regions, one per core, then
    // place each part's shared hot set (if any) after all of them.
    Addr base = kMixPrivateBase;
    std::vector<Addr> private_base; // per global core
    for (const MixPart &part : parts) {
        const Addr span = alignUp(privateSpan(part));
        for (int c = 0; c < part.cores; ++c) {
            private_base.push_back(base);
            base += span;
        }
    }
    std::vector<Addr> shared_base(parts.size(), 0);
    for (std::size_t p = 0; p < parts.size(); ++p) {
        if (parts[p].scenario) {
            shared_base[p] = base;
            // Hot set for the classic scenarios, keyed data space for
            // the datacenter generators (see scenarioSharedBytes).
            base += alignUp(scenarioSharedBytes(*parts[p].scenario));
        }
    }

    // Pass 2: build one generator per core (one reader per trace
    // part), each seeded by (seed, global core) so its stream never
    // depends on the interleaving of other cores.
    int core = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        const MixPart &part = parts[p];
        const std::string label = part.label();

        TraceReader *reader = nullptr;
        if (!part.tracePath.empty()) {
            auto owned = std::make_unique<TraceReader>(part.tracePath);
            reader = owned.get();
            if (reader->numCores() < part.cores)
                fatal("trace '", part.tracePath, "' has ",
                      reader->numCores(), " cores but the mix needs ",
                      part.cores);
            owned_.push_back(std::move(owned));
        }

        for (int c = 0; c < part.cores; ++c, ++core) {
            const std::uint64_t core_seed = hashCombine(
                seed, static_cast<std::uint64_t>(core) + 0x517cull);
            CoreBinding binding;
            binding.label = label;
            if (reader != nullptr) {
                binding.source = reader;
                binding.localCore = c;
            } else if (part.scenario) {
                auto src = std::make_unique<ScenarioSource>(
                    *part.scenario, core_seed, core,
                    private_base[static_cast<std::size_t>(core)],
                    shared_base[p]);
                binding.source = src.get();
                owned_.push_back(std::move(src));
            } else {
                WorkloadParams params = part.preset
                                            ? workloadParams(*part.preset)
                                            : *part.custom;
                params.numCores = 1;
                auto src = std::make_unique<SyntheticWorkload>(
                    params, core_seed);
                binding.source = src.get();
                binding.addrOffset =
                    private_base[static_cast<std::size_t>(core)];
                owned_.push_back(std::move(src));
            }
            cores_.push_back(std::move(binding));
        }
    }
}

bool
MixedWorkload::next(int core, MemoryAccess &out)
{
    UNISON_ASSERT(core >= 0 &&
                      core < static_cast<int>(cores_.size()),
                  "mix core ", core, " out of range");
    CoreBinding &binding = cores_[static_cast<std::size_t>(core)];
    if (!binding.source->next(binding.localCore, out))
        return false;
    out.addr += binding.addrOffset;
    out.core = static_cast<std::uint16_t>(core);
    return true;
}

bool
MixedWorkload::checkpointable() const
{
    for (const auto &src : owned_)
        if (!src->checkpointable())
            return false;
    return true;
}

void
MixedWorkload::saveState(StateWriter &out) const
{
    for (const auto &src : owned_)
        src->saveState(out);
}

void
MixedWorkload::loadState(StateReader &in)
{
    for (const auto &src : owned_)
        src->loadState(in);
}

const std::string &
MixedWorkload::coreLabel(int core) const
{
    UNISON_ASSERT(core >= 0 &&
                      core < static_cast<int>(cores_.size()),
                  "mix core ", core, " out of range");
    return cores_[static_cast<std::size_t>(core)].label;
}

} // namespace unison

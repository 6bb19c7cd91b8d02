#include "trace/workload.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unison {

namespace {

/**
 * Bounded process-wide sampler cache. Keyed by (domain, alpha bit
 * pattern) -- presets use exact literals, so there is no
 * float-comparison fuzziness to worry about. Bounded FIFO: a
 * long-running `serve` session sees an unbounded stream of distinct
 * (n, alpha) pairs, and each entry holds tables worth tens to hundreds
 * of KB, so the cache must not grow monotonically. Eviction drops the
 * oldest *insertion*; experiments still running with an evicted
 * sampler keep it alive through their shared_ptr, so eviction is
 * purely a cache-residency decision, never a correctness one. All
 * access is under one mutex -- the construction pow-loop is the only
 * expensive path and concurrent served sweeps hit the map briefly at
 * experiment setup, never per access.
 */
template <typename Sampler>
class BoundedSamplerCache
{
  public:
    std::shared_ptr<const Sampler>
    get(std::uint64_t n, double alpha)
    {
        std::uint64_t alpha_bits;
        static_assert(sizeof(alpha_bits) == sizeof(alpha));
        std::memcpy(&alpha_bits, &alpha, sizeof(alpha));
        const Key key{n, alpha_bits};

        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
        auto sampler = std::make_shared<const Sampler>(n, alpha);
        if (cache_.size() >= kSharedSamplerCacheCapacity) {
            cache_.erase(order_.front());
            order_.erase(order_.begin());
        }
        cache_.emplace(key, sampler);
        order_.push_back(key);
        return sampler;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return cache_.size();
    }

  private:
    using Key = std::pair<std::uint64_t, std::uint64_t>;

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<const Sampler>> cache_;
    std::vector<Key> order_; //!< insertion order, front is next victim
};

BoundedSamplerCache<ZipfAliasSampler> &
aliasSamplerCache()
{
    static BoundedSamplerCache<ZipfAliasSampler> cache;
    return cache;
}

BoundedSamplerCache<TwoLevelZipfSampler> &
twoLevelSamplerCache()
{
    static BoundedSamplerCache<TwoLevelZipfSampler> cache;
    return cache;
}

} // namespace

std::shared_ptr<const ZipfAliasSampler>
sharedZipfSampler(std::uint64_t n, double alpha)
{
    return aliasSamplerCache().get(n, alpha);
}

std::size_t
sharedZipfSamplerCacheSize()
{
    return aliasSamplerCache().size();
}

std::shared_ptr<const TwoLevelZipfSampler>
sharedTwoLevelZipfSampler(std::uint64_t n, double alpha)
{
    return twoLevelSamplerCache().get(n, alpha);
}

std::size_t
sharedTwoLevelZipfSamplerCacheSize()
{
    return twoLevelSamplerCache().size();
}

namespace {

/**
 * Scramble a Zipf rank into a region id so that popular regions are
 * scattered over the physical address space instead of clustering at
 * low addresses (which would create artificial set-index hot spots).
 */
std::uint64_t
scrambleRank(std::uint64_t rank, std::uint64_t num_regions)
{
    // Multiplicative hashing by a large odd constant, then fold into
    // the region domain. Near-uniform after the fold; the presets all
    // use power-of-two region counts, where a mask replaces the
    // 64-bit modulo.
    const std::uint64_t hashed = rank * 0x9e3779b97f4a7c15ull;
    if ((num_regions & (num_regions - 1)) == 0)
        return hashed & (num_regions - 1);
    return hashed % num_regions;
}

} // namespace

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params,
                                     std::uint64_t seed)
    : params_(params),
      functionZipf_(sharedZipfSampler(
          static_cast<std::uint64_t>(std::max(params.numFunctions, 1)),
          params.functionZipfAlpha)),
      regionZipf_(sharedZipfSampler(
          std::max<std::uint64_t>(params.numRegions(), 1),
          params.regionZipfAlpha))
{
    UNISON_ASSERT(params_.numCores >= 1, "workload needs >= 1 core");
    UNISON_ASSERT(params_.numFunctions >= 1, "workload needs functions");
    UNISON_ASSERT(params_.numRegions() >= 16,
                  "dataset too small: ", params_.datasetBytes);

    // Precomputed emitBlock constants (see emitBlock).
    {
        const double wf = std::clamp(params_.writeFraction, 0.0, 1.0);
        writeThresh24_ = static_cast<std::uint32_t>(
            wf * static_cast<double>(1u << 24));
        const double hi = 2.0 * params_.instrsPerMemRef - 1.0 + 0.5;
        instrSpan_ = static_cast<std::uint32_t>(std::max(hi, 1.0));
        if (params_.blockRepeatMean > 1.0) {
            geomRepeat_ = true;
            geomDenom_ = Rng::geometricDenom(params_.blockRepeatMean);
        }
    }

    // Core 0 draws from the generator that built the functions, so a
    // one-core workload (every MixedWorkload part) keeps the stream it
    // has always had; every other core gets a generator of its own.
    Rng build_rng(seed);
    buildFunctions(build_rng);

    cores_.resize(params_.numCores);
    for (int c = 0; c < params_.numCores; ++c) {
        CoreState &core = cores_[c];
        core.rng = c == 0
                       ? build_rng
                       : Rng(hashCombine(
                             seed, static_cast<std::uint64_t>(c) +
                                       kCoreSeedSalt));
        core.episodes.resize(std::max(params_.episodesPerCore, 1));
        for (auto &ep : core.episodes)
            startEpisode(core.rng, ep);
        core.burstLeft = params_.burstLength;
    }
}

void
SyntheticWorkload::buildFunctions(Rng &rng)
{
    functions_.resize(params_.numFunctions);
    const Pc pc_base = 0x400000;
    chasePcBase_ = 0x800000;

    const int num_singletons = static_cast<int>(
        params_.singletonFunctionFraction * params_.numFunctions);

    for (int f = 0; f < params_.numFunctions; ++f) {
        Function &fn = functions_[f];
        fn.pc = pc_base + static_cast<Pc>(f) * 4;

        if (f < num_singletons) {
            // Singleton function: touches exactly one block wherever
            // its object happens to land.
            fn.singleton = true;
            fn.pattern = 1;
            fn.width = 1;
            continue;
        }

        // Footprint size: truncated normal around the configured mean,
        // approximated by the mean of three uniform draws.
        const double spread = params_.footprintStddev * 3.46; // ~3 sigma
        double size = params_.meanFootprintBlocks +
                      spread * (rng.uniform() + rng.uniform() +
                                rng.uniform() - 1.5) / 3.0;
        const int blocks = static_cast<int>(std::clamp(
            size, 2.0, static_cast<double>(kRegionBlocks)));

        std::uint32_t pattern = 1; // bit 0 (the trigger) is always set
        if (rng.chance(params_.contiguousFraction)) {
            // Scan-like contiguous run.
            fn.contiguous = true;
            for (int b = 1; b < blocks; ++b)
                pattern |= 1u << b;
            fn.width = static_cast<std::uint8_t>(blocks);
        } else {
            // Scattered (structure-walk) pattern: fixed strides from
            // the first block, kept compact (real sparse objects are
            // clusters, not page-wide sprays -- this is also what
            // keeps them from splitting across every 960 B page).
            const std::uint32_t window = std::min<std::uint32_t>(
                kRegionBlocks, std::max<std::uint32_t>(
                                   4, static_cast<std::uint32_t>(
                                          blocks * 2)));
            while (popCount(pattern) <
                   static_cast<std::uint32_t>(blocks))
                pattern |= 1u << rng.range(1, window - 1);
            fn.width = static_cast<std::uint8_t>(
                32 - std::countl_zero(pattern));
        }
        fn.pattern = pattern;
    }
}

std::uint64_t
SyntheticWorkload::pickRegion(Rng &rng)
{
    const std::uint64_t rank = regionZipf_->sample(rng);
    return scrambleRank(rank, params_.numRegions());
}

std::uint32_t
SyntheticWorkload::applyNoise(Rng &rng, std::uint32_t mask,
                              std::uint32_t width)
{
    if (params_.footprintNoiseDrop <= 0.0 &&
        params_.footprintNoiseAdd <= 0.0)
        return mask;

    std::uint32_t result = mask;
    const std::uint32_t span =
        std::min<std::uint32_t>(width + 4, kRegionBlocks);
    for (std::uint32_t b = 1; b < span; ++b) {
        const std::uint32_t bit = 1u << b;
        if (mask & bit) {
            if (rng.chance(params_.footprintNoiseDrop))
                result &= ~bit;
        } else {
            if (rng.chance(params_.footprintNoiseAdd))
                result |= bit;
        }
    }
    return result; // bit 0 (the trigger) is never dropped
}

void
SyntheticWorkload::startEpisode(Rng &rng, Episode &ep)
{
    ep.active = true;
    ep.repeatsLeft = 0;
    ep.scan = false;

    if (rng.chance(params_.pointerChaseFraction)) {
        // Pointer chase: one random block of a random region, from a
        // per-offset chase PC (so the predictor can still learn that
        // these are singletons).
        const std::uint64_t region = rng.below(params_.numRegions());
        const std::uint32_t off = static_cast<std::uint32_t>(
            rng.below(kRegionBlocks));
        ep.startBlock = region * kRegionBlocks + off;
        ep.pendingMask = 1;
        ep.pc = chasePcBase_ + (off & 7) * 4;
        return;
    }

    const std::uint64_t region = pickRegion(rng);
    const std::uint64_t region_block = region * kRegionBlocks;

    // Most episodes on a region come from its owning function; the
    // rest are foreign visits by popularity-sampled code.
    std::uint32_t f;
    if (rng.chance(params_.ownerAffinity)) {
        f = static_cast<std::uint32_t>(
            hashCombine(region, 0x04e12ull) %
            static_cast<std::uint64_t>(params_.numFunctions));
    } else {
        f = static_cast<std::uint32_t>(functionZipf_->sample(rng));
    }
    const Function &fn = functions_[f];
    ep.pc = fn.pc;

    // Objects live at fixed addresses: the placement of this
    // function's data inside this region is a deterministic property
    // of (function, region), so revisiting the region touches the
    // same blocks again. Different (function, region) pairs still see
    // the full diversity of alignments.
    const std::uint64_t placement_hash =
        hashCombine(f + 1, region);

    if (fn.contiguous && params_.scanStretchMean > 1.0) {
        // Multi-region scan: stream `width x stretch` blocks from a
        // (function, region)-fixed start. Middle pages of the run are
        // dense, which is what makes scans so predictable for the
        // footprint machinery of any page size.
        const double stretch =
            params_.scanStretchMean *
            (0.5 + (placement_hash >> 32) * 0x1.0p-32);
        std::uint64_t len = static_cast<std::uint64_t>(
            fn.width * std::max(stretch, 1.0));
        len = std::clamp<std::uint64_t>(len, 2, 1024);
        const std::uint32_t align = static_cast<std::uint32_t>(
            placement_hash % kRegionBlocks);
        ep.startBlock = region_block + align;
        const std::uint64_t last_block =
            params_.numRegions() * kRegionBlocks - 1;
        if (ep.startBlock + len > last_block)
            ep.startBlock = last_block - len;
        ep.scan = true;
        ep.scanLeft = static_cast<std::uint32_t>(len);
        ep.scanNext = 0;
        return;
    }

    // Pattern episode: the relative pattern sits at the
    // (function, region)-fixed alignment. Placements are *not* clamped
    // to the region: real objects respect no page boundary, so a
    // footprint may straddle into the next region. (Clamping here
    // would mean no footprint ever crosses a 2 KB line -- artificially
    // perfect for a 2 KB-page cache and correspondingly unfair to the
    // 960 B / 1984 B organizations whose boundaries fall mid-region.)
    const std::uint32_t align = static_cast<std::uint32_t>(
        placement_hash % kRegionBlocks);
    ep.startBlock = region_block + align;
    const std::uint64_t last_block =
        params_.numRegions() * kRegionBlocks;
    if (ep.startBlock + fn.width > last_block)
        ep.startBlock = last_block - fn.width;
    ep.pendingMask =
        fn.singleton ? fn.pattern : applyNoise(rng, fn.pattern, fn.width);
    if (ep.pendingMask == 0)
        ep.pendingMask = fn.pattern;
}

void
SyntheticWorkload::emitBlock(Rng &rng, const Episode &ep,
                             std::uint64_t block, int core,
                             MemoryAccess &out)
{
    out.addr = blockAddress(block);
    out.pc = ep.pc;
    out.core = static_cast<std::uint16_t>(core);
    // One RNG draw supplies both fields: the write flag from the top
    // 24 bits, the instruction gap from the low 32 (emitBlock runs
    // once per reference, so the second generator step it used to
    // take was measurable).
    const std::uint64_t r = rng.next();
    out.isWrite = (r >> 40) < writeThresh24_;
    out.instrsBefore = static_cast<std::uint16_t>(
        1 + ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) *
              instrSpan_) >>
             32));
}

bool
SyntheticWorkload::emitFromEpisode(Rng &rng, Episode &ep, int core,
                                   MemoryAccess &out)
{
    if (ep.repeatsLeft == 0) {
        // Advance to the next block of the episode.
        if (ep.scan) {
            // Skip dropped blocks (noise), never the first.
            while (ep.scanLeft > 0 && ep.scanNext > 0 &&
                   rng.chance(params_.footprintNoiseDrop)) {
                ++ep.scanNext;
                --ep.scanLeft;
            }
            if (ep.scanLeft == 0) {
                ep.active = false;
                return false;
            }
            ep.currentBit = 0;
            --ep.scanLeft;
        } else {
            if (ep.pendingMask == 0) {
                ep.active = false;
                return false;
            }
            ep.currentBit = static_cast<std::uint8_t>(
                std::countr_zero(ep.pendingMask));
            ep.pendingMask &= ep.pendingMask - 1;
        }
        const std::uint64_t repeats =
            geomRepeat_ ? rng.geometricWith(geomDenom_) : 1;
        ep.repeatsLeft = static_cast<std::uint8_t>(
            std::min<std::uint64_t>(repeats, 64));
    }

    --ep.repeatsLeft;
    const std::uint64_t block =
        ep.scan ? ep.startBlock + ep.scanNext
                : ep.startBlock + ep.currentBit;
    emitBlock(rng, ep, block, core, out);
    if (ep.scan && ep.repeatsLeft == 0)
        ++ep.scanNext;
    return true;
}

bool
SyntheticWorkload::generate(CoreState &core, int core_idx,
                            MemoryAccess &out)
{
    for (int attempts = 0; attempts < 64; ++attempts) {
        if (core.burstLeft == 0) {
            // Rotate to the next in-flight episode (interleaving);
            // conditional wrap, since an integer divide here gates
            // every burst.
            core.burstLeft = params_.burstLength;
            ++core.slot;
            if (core.slot >= static_cast<int>(core.episodes.size()))
                core.slot = 0;
        }

        Episode &ep = core.episodes[core.slot];
        if (!ep.active)
            startEpisode(core.rng, ep);
        if (emitFromEpisode(core.rng, ep, core_idx, out)) {
            --core.burstLeft;
            return true;
        }
        // Episode drained mid-burst: start a fresh one next attempt.
        startEpisode(core.rng, ep);
    }
    panic("SyntheticWorkload failed to produce an access");
}

bool
SyntheticWorkload::next(int core_idx, MemoryAccess &out)
{
    UNISON_ASSERT(core_idx >= 0 && core_idx < params_.numCores,
                  "core ", core_idx, " out of range");
    return generate(cores_[core_idx], core_idx, out);
}

std::uint32_t
SyntheticWorkload::functionMask(int f) const
{
    UNISON_ASSERT(f >= 0 && f < static_cast<int>(functions_.size()),
                  "bad function index");
    return functions_[f].pattern;
}

Pc
SyntheticWorkload::functionPc(int f) const
{
    UNISON_ASSERT(f >= 0 && f < static_cast<int>(functions_.size()),
                  "bad function index");
    return functions_[f].pc;
}

} // namespace unison

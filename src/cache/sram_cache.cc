#include "cache/sram_cache.hh"

#include "common/bitops.hh"
#include "common/prefault.hh"
#include "common/logging.hh"

namespace unison {

SetAssocCache::SetAssocCache(const SramCacheConfig &config)
    : config_(config)
{
    UNISON_ASSERT(config_.assoc >= 1, config_.name, ": assoc must be >=1");
    UNISON_ASSERT(config_.assoc <= 256, config_.name, ": assoc too large");
    UNISON_ASSERT(isPowerOfTwo(config_.blockBytes),
                  config_.name, ": block size must be a power of two");
    const std::uint64_t blocks = config_.sizeBytes / config_.blockBytes;
    UNISON_ASSERT(blocks >= config_.assoc,
                  config_.name, ": cache smaller than one set");
    UNISON_ASSERT(blocks % config_.assoc == 0,
                  config_.name, ": size not divisible by assoc");
    numSets_ = static_cast<std::uint32_t>(blocks / config_.assoc);
    UNISON_ASSERT(isPowerOfTwo(numSets_),
                  config_.name, ": set count must be a power of two");
    blockShift_ = exactLog2(config_.blockBytes);
    setShift_ = exactLog2(numSets_);
    assignPrefaulted(meta_, blocks, 0);
    assignPrefaulted(lastUse_, blocks, 0);
    mru_.assign(numSets_, 0);
}

bool
SetAssocCache::probe(Addr addr) const
{
    const std::uint64_t block = addr >> blockShift_;
    const std::uint64_t set = block & (numSets_ - 1);
    const std::uint64_t tag = block >> setShift_;
    return scanWaysMruFast(&meta_[set * config_.assoc], config_.assoc,
                           ~kDirty, kValid | tag, mru_[set]) >= 0;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    const std::uint64_t block = addr >> blockShift_;
    const std::uint64_t set = block & (numSets_ - 1);
    const std::uint64_t tag = block >> setShift_;
    const std::size_t base = set * config_.assoc;
    const int way = scanWaysMruFast(&meta_[base], config_.assoc,
                                    ~kDirty, kValid | tag, mru_[set]);
    if (way < 0)
        return false;
    const bool was_dirty = (meta_[base + way] & kDirty) != 0;
    meta_[base + way] = 0;
    return was_dirty;
}

} // namespace unison

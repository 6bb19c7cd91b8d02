#include "predictors/footprint_table.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unison {

std::string
validateFhtShape(const FootprintTableConfig &c)
{
    if (c.numEntries % c.assoc != 0)
        return "fhtEntries (" + std::to_string(c.numEntries) +
               ") must be a multiple of fhtAssoc (" +
               std::to_string(c.assoc) + ")";
    const std::uint32_t sets = c.numEntries / c.assoc;
    if (!isPowerOfTwo(sets))
        return "fhtEntries/fhtAssoc must be a power of two "
               "(FHT set count), got " +
               std::to_string(sets) + " sets";
    return "";
}

FootprintHistoryTable::FootprintHistoryTable(
    const FootprintTableConfig &config)
    : config_(config)
{
    UNISON_ASSERT(config_.assoc >= 1, "FHT assoc must be >= 1");
    const std::string shape = validateFhtShape(config_);
    UNISON_ASSERT(shape.empty(), "FHT shape: ", shape);
    numSets_ = config_.numEntries / config_.assoc;
    UNISON_ASSERT(config_.maxBlocksPerPage <= 64,
                  "footprint masks wider than 64 blocks unsupported");
    UNISON_ASSERT(config_.tagBits <= 31,
                  "packed FHT entries hold at most 31 tag bits");
    entries_.resize(config_.numEntries);
}

void
FootprintHistoryTable::index(Pc pc, std::uint32_t offset,
                             std::uint64_t &set, std::uint32_t &tag) const
{
    const std::uint64_t h = hashCombine(pc, offset);
    set = h & (numSets_ - 1);
    tag = static_cast<std::uint32_t>(
        (h >> 32) & ((1ull << config_.tagBits) - 1));
}

FootprintHistoryTable::Entry *
FootprintHistoryTable::find(std::uint64_t set, std::uint32_t tag)
{
    Entry *base = &entries_[set * config_.assoc];
    const std::uint32_t key = Entry::kValid | tag;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (base[w].vtag == key)
            return &base[w];
    }
    return nullptr;
}

bool
FootprintHistoryTable::predict(Pc pc, std::uint32_t offset,
                               std::uint64_t &mask_out)
{
    ++stats_.lookups;
    std::uint64_t set;
    std::uint32_t tag;
    index(pc, offset, set, tag);
    Entry *entry = find(set, tag);
    if (entry == nullptr)
        return false;
    ++stats_.hits;
    entry->lastUse = ++useCounter_;
    mask_out = entry->mask;
    return true;
}

void
FootprintHistoryTable::update(Pc pc, std::uint32_t offset,
                              std::uint64_t actual_mask)
{
    ++stats_.updates;
    std::uint64_t set;
    std::uint32_t tag;
    index(pc, offset, set, tag);
    Entry *entry = find(set, tag);
    if (entry == nullptr) {
        ++stats_.inserts;
        // Allocate: invalid way first, else LRU.
        Entry *base = &entries_[set * config_.assoc];
        entry = base;
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            if (!base[w].valid()) {
                entry = &base[w];
                break;
            }
            if (base[w].lastUse < entry->lastUse)
                entry = &base[w];
        }
        entry->vtag = Entry::kValid | tag;
    }
    entry->mask = actual_mask;
    entry->lastUse = ++useCounter_;
}

void
FootprintHistoryTable::merge(Pc pc, std::uint32_t offset,
                             std::uint64_t extra_mask)
{
    std::uint64_t set;
    std::uint32_t tag;
    index(pc, offset, set, tag);
    Entry *entry = find(set, tag);
    if (entry == nullptr) {
        update(pc, offset, extra_mask);
        return;
    }
    entry->mask |= extra_mask;
    entry->lastUse = ++useCounter_;
}

std::uint64_t
FootprintHistoryTable::storageBytes() const
{
    // tag + footprint vector + 2 LRU bits per entry, rounded to bits.
    const std::uint64_t bits_per_entry =
        config_.tagBits + config_.maxBlocksPerPage + 2;
    return config_.numEntries * bits_per_entry / 8;
}

} // namespace unison

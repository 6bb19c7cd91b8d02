/**
 * @file
 * Loh-Hill cache (MICRO 2011), the block-based in-DRAM-tag design the
 * paper's Sec. II-A analyzes as Alloy Cache's predecessor.
 *
 * Each 8 KB DRAM row is one large set: the tags of all ways sit at the
 * head of the row and are read *first*; on a match the data block is
 * read with a second, serialized access (scheduled to hit the open
 * row). A multi-MB on-chip "MissMap" tracks block presence so misses
 * can bypass the in-DRAM tag probe -- at the price of adding its
 * lookup latency to every access, hits included. The Unison paper's
 * critique (which this model reproduces): hits pay MissMap + tag-then-
 * data serialization, and the MissMap itself cannot scale to multi-GB
 * caches.
 *
 * The MissMap is modelled as presence bits with a fixed lookup latency
 * and a reported SRAM budget; its capacity-eviction side effects are
 * idealized away (DESIGN.md, substitutions).
 */

#ifndef UNISON_BASELINES_LOHHILL_CACHE_HH
#define UNISON_BASELINES_LOHHILL_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/organization.hh"
#include "common/fastdiv.hh"
#include "core/dram_cache.hh"
#include "core/fill_engine.hh"
#include "dram/backend.hh"
#include "dram/timing.hh"

namespace unison {

struct LohHillConfig
{
    std::uint64_t capacityBytes = 1_GiB;

    /** MissMap lookup latency (multi-MB SRAM; Sec. II-A). */
    Cycle missMapLatency = 24;

    DramOrganization stackedOrg = stackedDramOrganization();
    DramTimingParams stackedTiming = stackedDramTiming();
};

/** Row-as-set geometry for the Loh-Hill organization. */
struct LohHillGeometry
{
    std::uint64_t capacityBytes = 0;
    std::uint64_t numRows = 0;     //!< one set per row
    std::uint32_t waysPerSet = 0;  //!< 8 B tag + 64 B data per way
    std::uint32_t tagBytes = 0;    //!< tag region read on every probe
    std::uint64_t inDramTagBytes = 0;
    std::uint64_t missMapBytes = 0; //!< presence bits, 1 per block

    /** Invariant-divisor split of the block index (row-as-set). */
    FastDiv64 numRowsDiv;

    static LohHillGeometry compute(std::uint64_t capacity_bytes);
};

class LohHillCache final : public DramCache
{
  public:
    LohHillCache(const LohHillConfig &config, MemoryBackend *offchip);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string name() const override { return "LohHill"; }
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }

    const LohHillConfig &config() const { return config_; }
    const LohHillGeometry &geometry() const { return geometry_; }

    /** @name Test hooks */
    /**@{*/
    bool blockPresent(Addr addr) const;
    bool blockDirty(Addr addr) const;
    /**@}*/

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        org_.saveState(out);
        stacked_->saveState(out);
        out.pod(useCounter_);
    }

    void
    loadState(StateReader &in) override
    {
        org_.loadState(in);
        stacked_->loadState(in);
        in.pod(useCounter_);
    }

  private:
    /** Packed way word (the shared set_scan.hh positions). */
    static constexpr std::uint64_t kValid = kWayValidBit;
    static constexpr std::uint64_t kDirty = kWayDirtyBit;
    static constexpr std::uint64_t kTagMask = kWayTagMask;

    void locate(Addr addr, std::uint64_t &set, std::uint64_t &tag) const;

    LohHillConfig config_;
    LohHillGeometry geometry_;
    std::unique_ptr<MemoryBackend> stacked_;
    /** CacheOrganization: SoA way metadata (`set * waysPerSet + way`);
     *  the 113-way row-as-set scan sweeps packed tag words
     *  contiguously instead of pointer-chasing way objects. */
    RowSetOrganization org_;
    FillEngine fill_;
    WritebackEngine writeback_;
    std::uint32_t useCounter_ = 0;
};

} // namespace unison

#endif // UNISON_BASELINES_LOHHILL_CACHE_HH

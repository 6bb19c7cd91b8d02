/**
 * @file
 * The analytic DRAM pool model (the "fast" MemoryBackend): a set of
 * open-page channels timed in arrival order. Cache designs either
 * address a pool by *global row index* (the stacked pool, whose layout
 * the cache controls) or by *byte address* (the off-chip pool, which
 * backs all of physical memory); both entry points live on the
 * MemoryBackend base in backend.hh.
 */

#ifndef UNISON_DRAM_DRAM_HH
#define UNISON_DRAM_DRAM_HH

#include "dram/backend.hh"
#include "dram/channel.hh"
#include "dram/timing.hh"

namespace unison {

/**
 * The analytic open-page pool. Every golden is pinned against this
 * backend; its per-access cost is a handful of compares, so it is also
 * the one the sweeps run.
 */
class DramModule final : public ChannelPool<DramChannel>
{
  public:
    DramModule(const DramOrganization &org, const DramTimingParams &params)
        : ChannelPool(org, params, org.openRowWindow)
    {
    }
};

} // namespace unison

#endif // UNISON_DRAM_DRAM_HH

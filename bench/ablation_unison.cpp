/**
 * @file
 * Ablations of the Unison Cache design choices DESIGN.md calls out,
 * all at 1 GB on three representative workloads:
 *
 *  1. way policy   -- way prediction vs fetching all ways vs
 *                     serializing tag-then-data (Sec. III-A.5/6),
 *                     and the predictor itself: per-set MRU and
 *                     always-way-0 against the paper's hashed one;
 *  2. page size    -- 960 B vs 1984 B pages (Sec. V-A);
 *  3. miss policy  -- static always-hit vs a MAP-I miss predictor
 *                     (the paper argues the predictor is unnecessary);
 *  4. singleton    -- singleton bypass on/off (effective capacity);
 *  5. footprint    -- footprint prediction off = fetch whole pages
 *                     (the off-chip traffic explosion FP prevents);
 *  6. composition  -- the policy-framework hybrid alloy-fp (block
 *                     cache + footprint-grouped prefetch).
 */

#include <cstdio>

#include "bench/bench_common.hh"

namespace {

using namespace unison;

const std::vector<Workload> kWorkloads = {
    Workload::DataServing, Workload::WebSearch, Workload::DataAnalytics};

void
addRow(Table &t, const std::string &variant, Workload w,
       const SimResult &r, const SimResult &base)
{
    t.beginRow();
    t.add(workloadName(w));
    t.add(variant);
    t.add(r.missRatioPercent(), 1);
    t.add(r.avgDramCacheLatency, 0);
    t.add(static_cast<double>(r.cache.offchipFetchedBlocks()) /
              static_cast<double>(r.references) * 1000.0,
          1);
    t.add(static_cast<double>(r.stacked.bytesRead +
                              r.stacked.bytesWritten) /
              static_cast<double>(r.references),
          1);
    t.add(base.uipc > 0.0 ? r.uipc / base.uipc : 0.0, 3);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace unison::bench;

    const BenchOptions opts = parseBenchArgs(
        argc, argv, "Unison Cache design-choice ablations (1GB)");

    Table t({"workload", "variant", "miss%", "dc_lat",
             "offchip blk/1K refs", "stacked B/ref", "speedup"});

    const std::vector<std::string> variants = {
        "baseline (predict, 960B, always-hit)",
        "fetch all ways",
        "serial tag-then-data",
        "1984B pages",
        "MAP-I miss predictor",
        "no singleton bypass",
        "no footprint pred (whole pages)",
        "alloy-fp (composed hybrid)",
        "wp=mru way predictor (composed)",
        "wp=static0 way predictor (composed)",
    };

    // One nocache baseline plus ten arms per workload (the Unison
    // baseline, eight Unison deviations and the alloy-fp composition;
    // goldens/ablation_unison.csv pins these labels); the grid lives
    // in sim/figures.cc (shared with unison_sim).
    const std::vector<GridPoint> points =
        figureGrid("ablation", figureOptions(opts));
    const std::vector<SimResult> results =
        bench::runAll(points, opts, "ablation");

    std::size_t idx = 0;
    for (Workload w : kWorkloads) {
        const SimResult &base = results[idx++];
        for (const std::string &variant : variants)
            addRow(t, variant, w, results[idx++], base);
    }
    expectConsumedAll(idx, results, "ablation");

    emit(t, opts, "Unison Cache ablations @ 1GB");
    std::printf(
        "\nPaper reference: way prediction saves ~12 cycles and 4x hit "
        "traffic vs fetching all ways; a static always-hit policy "
        "matches a dynamic predictor at >90%% hit rates; 960B pages "
        "predict slightly better than 1984B; whole-page fetching "
        "wastes off-chip bandwidth.\n");
    return 0;
}

/**
 * @file
 * Compare the DRAM-cache designs the paper evaluates (Alloy, Footprint,
 * Unison, Ideal, and the no-cache baseline) on one workload/capacity
 * point, printing the headline metrics side by side.
 *
 *   ./examples/design_comparison --workload=webserving --capacity=512M
 */

#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"
#include "common/argparse.hh"
#include "sim/experiment.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace unison;

    ArgParser args("DRAM cache design comparison");
    args.addOption("workload", "webserving", "workload preset name");
    args.addOption("capacity", "512M", "stacked DRAM cache size");
    args.addOption("accesses", "0", "references (0 = auto-scale)");
    args.addOption("seed", "42", "workload seed");
    args.addFlag("quick", "divide the auto-scaled length by 8");
    bench::addThreadsOption(args);
    args.parse(argc, argv);

    ExperimentSpec spec;
    spec.workload = workloadFromName(args.getString("workload"));
    spec.capacityBytes = parseSize(args.getString("capacity"));
    spec.accesses = args.getUint("accesses");
    spec.quick = args.getFlag("quick");
    spec.seed = args.getUint("seed");

    std::printf("%s @ %s\n\n", workloadName(spec.workload).c_str(),
                formatSize(spec.capacityBytes).c_str());

    const std::vector<DesignKind> designs = {
        DesignKind::NoDramCache, DesignKind::Alloy,
        DesignKind::Footprint,   DesignKind::Unison,
        DesignKind::Ideal,
    };

    Table table({"design", "miss%", "fp_acc%", "fp_over%", "wp_acc%",
                 "dc_lat", "st_rowhit%", "oc_rowhit%", "offchip_blk",
                 "uipc", "speedup"});
    SweepGrid grid(spec);
    grid.overDesigns(designs);
    const std::vector<SimResult> results = bench::runAll(
        grid.points(), bench::parseThreads(args),
        "design_comparison");

    double base_uipc = 0.0;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const SimResult &r = results[i];
        if (designs[i] == DesignKind::NoDramCache)
            base_uipc = r.uipc;
        table.beginRow();
        table.add(r.designName);
        table.add(r.missRatioPercent(), 1);
        table.add(r.cache.fpAccuracyPercent(), 1);
        table.add(r.cache.fpOverfetchPercent(), 1);
        table.add(r.wpAccuracyPercent, 1);
        table.add(r.avgDramCacheLatency, 0);
        table.add(100.0 * r.stacked.rowHitRatio(), 1);
        table.add(100.0 * r.offchip.rowHitRatio(), 1);
        table.add(r.cache.offchipFetchedBlocks() +
                  r.cache.offchipWritebackBlocks.value());
        table.add(r.uipc, 4);
        table.add(base_uipc > 0 ? r.uipc / base_uipc : 0.0);
    }
    table.print();
    return 0;
}

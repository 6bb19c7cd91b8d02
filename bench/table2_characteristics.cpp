/**
 * @file
 * Regenerates Table II (key characteristics of the three DRAM cache
 * schemes) and Table IV (Footprint Cache SRAM tag sizes/latencies)
 * from the geometry code -- no simulation needed; this validates the
 * structural arithmetic the designs are built on. The Footprint
 * column reads FootprintGeometry, the Table II/IV facts the
 * `footprint` design hands to the Unison body it is built on.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "core/geometry.hh"
#include "predictors/footprint_table.hh"
#include "predictors/miss_predictor.hh"
#include "predictors/singleton_table.hh"
#include "predictors/way_predictor.hh"

int
main(int argc, char **argv)
{
    using namespace unison;
    using namespace unison::bench;

    const BenchOptions opts = parseBenchArgs(
        argc, argv, "Table II / Table IV: design characteristics");

    const std::uint64_t cap = 8_GiB; // the paper's scaling point

    const UnisonGeometry uc960 = UnisonGeometry::compute(cap, 15, 4);
    const UnisonGeometry uc1984 = UnisonGeometry::compute(cap, 31, 4);
    const AlloyGeometry ac = AlloyGeometry::compute(cap);
    const FootprintGeometry fc = FootprintGeometry::compute(cap);

    FootprintTableConfig fht_cfg;
    FootprintHistoryTable fht(fht_cfg);
    SingletonTable singletons(SingletonTableConfig{});
    MissPredictorConfig mp_cfg;
    MissPredictor mp(mp_cfg);
    WayPredictor wp_small(12, 4), wp_large(16, 4);

    Table t({"characteristic", "Alloy Cache", "Footprint Cache",
             "Unison Cache"});
    t.beginRow();
    t.add(std::string("associativity"));
    t.add(std::string("direct-mapped"));
    t.add(std::string("32-way"));
    t.add(std::string("4-way"));
    t.beginRow();
    t.add(std::string("64B blocks per 8KB row"));
    t.add(std::uint64_t(ac.tadsPerRow));
    t.add(std::uint64_t(fc.pageBlocks * fc.pagesPerRow));
    t.add(std::to_string(uc960.blocksPerRow) + "-" +
          std::to_string(uc1984.blocksPerRow));
    t.beginRow();
    t.add(std::string("SRAM tag array @ 8GB"));
    t.add(std::string("-"));
    t.add(formatSize(fc.sramTagBytes) + " (~48-50MB in paper)");
    t.add(std::string("-"));
    t.beginRow();
    t.add(std::string("in-DRAM tag+meta @ 8GB"));
    t.add(formatSize(ac.inDramTagBytes) + " (paper: ~1GB)");
    t.add(std::string("-"));
    t.add(formatSize(uc1984.inDramTagBytes) + "-" +
          formatSize(uc960.inDramTagBytes) +
          " (paper: 256-512MB)");
    t.beginRow();
    t.add(std::string("miss predictor"));
    t.add(formatSize(mp.storageBytes()) + " (96B/core)");
    t.add(std::string("-"));
    t.add(std::string("- (static always-hit)"));
    t.beginRow();
    t.add(std::string("way predictor"));
    t.add(std::string("-"));
    t.add(std::string("-"));
    t.add(formatSize(wp_small.storageBytes()) + "-" +
          formatSize(wp_large.storageBytes()));
    t.beginRow();
    t.add(std::string("footprint history table"));
    t.add(std::string("-"));
    t.add(formatSize(fht.storageBytes()));
    t.add(formatSize(fht.storageBytes()));
    t.beginRow();
    t.add(std::string("singleton table"));
    t.add(std::string("-"));
    t.add(formatSize(singletons.storageBytes()));
    t.add(formatSize(singletons.storageBytes()));
    emit(t, opts, "Table II: key characteristics @ 8GB stacked DRAM");

    Table t4({"cache size", "FC tags (MB)", "paper (MB)",
              "FC tag latency (cycles)", "paper (cycles)"});
    struct Row
    {
        std::uint64_t cap;
        double paper_mb;
        Cycle paper_lat;
    };
    const Row rows[] = {
        {128_MiB, 0.8, 6}, {256_MiB, 1.58, 9}, {512_MiB, 3.12, 11},
        {1_GiB, 6.2, 16},  {2_GiB, 12.5, 25},  {4_GiB, 25.0, 36},
        {8_GiB, 50.0, 48},
    };
    for (const Row &r : rows) {
        const FootprintGeometry g = FootprintGeometry::compute(r.cap);
        t4.beginRow();
        t4.add(formatSize(r.cap));
        t4.add(static_cast<double>(g.sramTagBytes) / (1024.0 * 1024.0),
               2);
        t4.add(r.paper_mb, 2);
        t4.add(std::uint64_t(g.tagLatency));
        t4.add(std::uint64_t(r.paper_lat));
    }
    emit(t4, opts, "Table IV: Footprint Cache tag arrays");
    return 0;
}

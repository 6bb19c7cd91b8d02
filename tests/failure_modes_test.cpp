/**
 * @file
 * Failure-injection tests: every configuration error a user can make
 * must die loudly (gem5-style fatal/panic), never corrupt state or
 * limp along. Uses gtest death tests against the UNISON_ASSERT /
 * fatal() paths of each module's constructor and parser.
 */

#include <gtest/gtest.h>

#include <memory>

#include "baselines/naive_tagged_page.hh"
#include "common/argparse.hh"
#include "core/alloy_fp.hh"
#include "core/conflict_model.hh"
#include "core/geometry.hh"
#include "core/unison_cache.hh"
#include "dram/dram.hh"
#include "predictors/footprint_table.hh"
#include "sim/runner.hh"
#include "trace/presets.hh"
#include "trace/tracefile.hh"

namespace unison {
namespace {

TEST(FailureModes, GeometryRejectsSubRowCapacity)
{
    EXPECT_DEATH(UnisonGeometry::compute(4096, 15, 4), "capacity");
    EXPECT_DEATH(AlloyGeometry::compute(100), "capacity");
}

TEST(FailureModes, GeometryRejectsAbsurdPages)
{
    EXPECT_DEATH(UnisonGeometry::compute(1_GiB, 0, 4), "page");
    EXPECT_DEATH(UnisonGeometry::compute(1_GiB, 64, 4), "page");
    EXPECT_DEATH(UnisonGeometry::compute(1_GiB, 15, 0), "assoc");
}

TEST(FailureModes, GeometryRejectsSetWiderThanCache)
{
    // A 32-way set of 31-block pages needs 8 rows; a cache of 4 rows
    // cannot hold even one set.
    EXPECT_DEATH(UnisonGeometry::compute(4 * kRowBytes, 31, 32),
                 "capacity too small");
}

TEST(FailureModes, UnisonRejectsWideMasks)
{
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    UnisonConfig cfg;
    cfg.capacityBytes = 128_MiB;
    cfg.pageBlocks = 33; // > 32-bit footprint masks
    EXPECT_DEATH(UnisonCache(cfg, &offchip), "32 bits");
}

TEST(FailureModes, UnisonRequiresAMemoryPool)
{
    UnisonConfig cfg;
    cfg.capacityBytes = 128_MiB;
    EXPECT_DEATH(UnisonCache(cfg, nullptr), "memory pool");
}

TEST(FailureModes, FootprintTableRejectsNonPowerOfTwoSets)
{
    FootprintTableConfig cfg;
    cfg.numEntries = 24 * 1024;
    cfg.assoc = 1; // 24K sets: not a power of two
    EXPECT_DEATH(FootprintHistoryTable{cfg}, "power of two");
}

TEST(FailureModes, NaiveBlockFpRejectsNonPowerOfTwoPages)
{
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    NaiveBlockFpConfig cfg;
    cfg.capacityBytes = 128_MiB;
    cfg.pageBlocks = 15; // the point of that design needs 2^n grouping
    EXPECT_DEATH(AlloyFpCache(cfg, &offchip, BlockFpMetadata::InDram),
                 "power of two");
}

TEST(FailureModes, NaiveTaggedPageRejectsRaggedCapacity)
{
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    NaiveTaggedPageConfig cfg;
    cfg.capacityBytes = kRowBytes + 100; // not whole rows
    EXPECT_DEATH(NaiveTaggedPageCache(cfg, &offchip), "rows");
}

TEST(FailureModes, ConflictModelGuardsItsDomain)
{
    EXPECT_DEATH(blocksPerPage(100, 64), "multiple");
    EXPECT_DEATH(pageConflictProbability(1.5, 32), "probability");
    EXPECT_DEATH(conflictAmplification(0.0, 32), "q must be");
    EXPECT_DEATH(expectedConflictFractionLambda(-1.0, 4),
                 "non-negative");
    EXPECT_DEATH(expectedConflictFractionLambda(1.0, 0), "at least 1");
    EXPECT_DEATH(expectedConflictFraction(0, 1, 10), "sets");
}

TEST(FailureModes, UnknownWorkloadNameIsFatal)
{
    EXPECT_DEATH(workloadFromName("notaworkload"), "unknown workload");
}

TEST(FailureModes, TraceReaderRejectsMissingFile)
{
    EXPECT_DEATH(TraceReader("/nonexistent/path/trace.bin"), ".*");
}

namespace {

/** Parse one --name=value pair through a fresh ArgParser. */
ArgParser
parsedOption(const std::string &name, const std::string &value)
{
    ArgParser args("cli validation fixture");
    args.addOption(name, "0", "test option");
    const std::string arg = "--" + name + "=" + value;
    const char *argv[] = {"prog", arg.c_str()};
    args.parse(2, argv);
    return args;
}

} // namespace

TEST(FailureModes, ArgparseRejectsNonNumericAndOverflow)
{
    EXPECT_DEATH(parsedOption("threads", "abc").getInt("threads"),
                 "not an integer");
    EXPECT_DEATH(parsedOption("threads", "12x").getInt("threads"),
                 "not an integer");
    // 2^70: strtoll saturates silently without the ERANGE check.
    EXPECT_DEATH(parsedOption("threads", "1180591620717411303424")
                     .getInt("threads"),
                 "overflows");
    EXPECT_DEATH(parsedOption("accesses", "-5").getUint("accesses"),
                 "non-negative");
    EXPECT_DEATH(parsedOption("alpha", "1e99999").getDouble("alpha"),
                 "outside the double range");
}

TEST(FailureModes, ParseSizeRejectsNegativeAndOverflow)
{
    EXPECT_DEATH(parseSize("-1G"), "malformed size");
    EXPECT_DEATH(parseSize("nan"), "malformed size");
    EXPECT_DEATH(parseSize("inf"), "overflows");
    EXPECT_DEATH(parseSize("999999999T"), "overflows");
    EXPECT_DEATH(parseSize("12Q"), "suffix");
    EXPECT_DEATH(parseSize(""), "empty");
    // Sane inputs still parse.
    EXPECT_EQ(parseSize("1G"), 1_GiB);
    EXPECT_EQ(parseSize("512"), 512u);
}

TEST(FailureModes, RunnerRejectsNegativeThreadCount)
{
    std::vector<ExperimentSpec> specs(1);
    specs[0].capacityBytes = 32_MiB;
    specs[0].system.numCores = 2;
    specs[0].accesses = 1000;
    EXPECT_DEATH(runExperiments(specs, -1), "thread count");
}

TEST(FailureModes, ExperimentRejectsZeroCoresAndCapacity)
{
    ExperimentSpec spec;
    spec.system.numCores = 0;
    EXPECT_DEATH(runExperiment(spec), ">= 1 core");

    ExperimentSpec nocap;
    nocap.system.numCores = 2;
    nocap.accesses = 1000;
    nocap.capacityBytes = 0;
    EXPECT_DEATH(runExperiment(nocap), "capacity");
}

} // namespace
} // namespace unison

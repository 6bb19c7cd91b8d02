/**
 * @file
 * Shared plumbing for the bench harnesses that regenerate the paper's
 * tables and figures: argument handling (--quick, --seed, --csv) and
 * small aggregation helpers.
 */

#ifndef UNISON_BENCH_BENCH_COMMON_HH
#define UNISON_BENCH_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/figures.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stats/table.hh"

namespace unison {
namespace bench {

/** Options common to all bench binaries. */
struct BenchOptions
{
    bool quick = false;
    bool csv = false;
    std::uint64_t seed = 42;
    int threads = 1; //!< experiment-runner workers (0 = all cores)
};

inline int parseThreads(const ArgParser &args);

inline BenchOptions
parseBenchArgs(int argc, char **argv, const std::string &description)
{
    ArgParser args(description);
    args.addFlag("quick", "run 8x shorter simulations (CI mode)");
    args.addFlag("csv", "emit CSV instead of aligned tables");
    args.addOption("seed", "42", "workload seed");
    args.addOption("threads", "1",
                   "experiments to run concurrently (0 = all cores)");
    args.parse(argc, argv);

    BenchOptions opts;
    opts.quick = args.getFlag("quick");
    opts.csv = args.getFlag("csv");
    opts.seed = args.getUint("seed");
    opts.threads = parseThreads(args);
    return opts;
}

/** Register the shared --threads option on a bespoke ArgParser (for
 *  example programs that have their own option sets). */
inline void
addThreadsOption(ArgParser &args)
{
    args.addOption("threads", "1",
                   "experiments to run concurrently (0 = all cores)");
}

/** Validated read of the shared --threads option. */
inline int
parseThreads(const ArgParser &args)
{
    const std::int64_t threads = args.getInt("threads");
    if (threads < 0 || threads > 4096)
        fatal("--threads must be between 0 (= all cores) and 4096, "
              "got ", threads);
    return static_cast<int>(threads);
}

/**
 * Run a sweep grid on `threads` workers, with per-point progress on
 * stderr ("tag: [k/n] <label> done" -- the grid's stable labels, not a
 * bare counter). Results come back in point order and are identical
 * for any thread count. An optional `store` (the durable result and
 * warm-snapshot store) is passed through to the runner.
 */
inline std::vector<SimResult>
runAll(const std::vector<GridPoint> &points, int threads,
       const char *tag, RunStore *store = nullptr)
{
    std::vector<ExperimentSpec> specs;
    specs.reserve(points.size());
    for (const GridPoint &point : points)
        specs.push_back(point.spec);

    std::size_t done = 0;
    return runExperiments(
        specs, threads,
        [&done, &points, tag](std::size_t index, const SimResult &) {
            ++done;
            std::fprintf(stderr, "%s: [%zu/%zu] %s done\n", tag, done,
                         points.size(), points[index].label.c_str());
        },
        store);
}

inline std::vector<SimResult>
runAll(const std::vector<GridPoint> &points, const BenchOptions &opts,
       const char *tag)
{
    return runAll(points, opts.threads, tag);
}

/**
 * Guard for positional result consumption: benches that regroup a
 * figure grid's results with their own row loops must walk exactly
 * the points the grid ran, or the table would print numbers under the
 * wrong rows after a grid edit in sim/figures.cc.
 */
inline void
expectConsumedAll(std::size_t consumed,
                  const std::vector<SimResult> &results,
                  const char *tag)
{
    if (consumed != results.size())
        panic(tag, ": bench rows consumed ", consumed, " of ",
              results.size(),
              " grid results -- row loops are out of sync with the "
              "figure grid in sim/figures.cc");
}

/** Geometric mean of a series (used for Fig. 7's summary panel). */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Emit a table in the requested format with a heading. */
inline void
emit(const Table &table, const BenchOptions &opts,
     const std::string &heading)
{
    std::printf("\n== %s ==\n", heading.c_str());
    if (opts.csv)
        std::fputs(table.toCsv().c_str(), stdout);
    else
        std::fputs(table.toString().c_str(), stdout);
    std::fflush(stdout);
}

/** Build a baseline ExperimentSpec from the shared options. */
inline ExperimentSpec
baseSpec(const BenchOptions &opts)
{
    ExperimentSpec spec;
    spec.quick = opts.quick;
    spec.seed = opts.seed;
    return spec;
}

/** The figure-grid options slice of the shared bench options. */
inline FigureOptions
figureOptions(const BenchOptions &opts)
{
    FigureOptions fig;
    fig.quick = opts.quick;
    fig.seed = opts.seed;
    return fig;
}

} // namespace bench
} // namespace unison

#endif // UNISON_BENCH_BENCH_COMMON_HH

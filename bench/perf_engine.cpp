/**
 * @file
 * Simulation-engine throughput bench: how many simulated accesses per
 * second the engine sustains, per design, plus trace-replay speed, an
 * 8-core multiprogrammed mix, the datacenter-scale ycsb-kv arms (4/64/256 cores with a resident-set
 * proxy), the convergence grid with and without warm-checkpoint
 * grouping, the wall-clock of a figure-style sweep at a given
 * --threads count, and the set-up time of a 1 GB System per design.
 *
 * This is the repo's performance regression guard. Timings on a shared
 * (CI) host drift by several percent between measurement windows, so
 * single back-to-back readings systematically mislead: the engine,
 * replay and set-up sections run an odd number of *interleaved*
 * repeats (design A, B, C, D, then A again ...) and report medians, which
 * cancels slow drift and rejects one-off spikes. --json emits the
 * numbers machine-readably, stamped with the host they came from, and
 * --out additionally writes them to a file so CI can track the
 * trajectory:
 *
 *   ./perf_engine --quick --json --out BENCH_engine.json
 */

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "common/error.hh"
#include "common/file_io.hh"
#include "common/json.hh"
#include "sim/figures.hh"
#include "sim/runner.hh"
#include "trace/tracefile.hh"
#include "trace/workload.hh"

namespace {

using namespace unison;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement
{
    std::string name;
    std::uint64_t accesses = 0;      //!< per repeat
    std::vector<double> seconds;     //!< one entry per repeat

    double
    medianSeconds() const
    {
        std::vector<double> s = seconds;
        std::sort(s.begin(), s.end());
        return s.empty() ? 0.0 : s[s.size() / 2];
    }

    double
    rate() const
    {
        const double med = medianSeconds();
        return med > 0.0 ? static_cast<double>(accesses) / med : 0.0;
    }
};

/** Kilobyte value of one /proc/self/status field ("VmRSS", "VmHWM"),
 *  or 0 where procfs is unavailable. A proxy, not a measurement: it
 *  covers the whole process, so only deltas and trends across runs of
 *  the same binary mean anything. */
std::uint64_t
statusKb(const char *field)
{
    std::FILE *f = std::fopen("/proc/self/status", "rb");
    if (f == nullptr)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    const std::size_t len = std::strlen(field);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
            kb = std::strtoull(line + len + 1, nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

/** The kernel's transparent-huge-page mode -- the bracketed word of
 *  /sys/kernel/mm/transparent_hugepage/enabled -- or "unknown". Under
 *  `always` the kernel backs the large state arrays with huge pages by
 *  itself, so set-up time and memory depend on it. */
std::string
thpMode()
{
    std::string mode = "unknown";
    if (std::FILE *f = std::fopen(
            "/sys/kernel/mm/transparent_hugepage/enabled", "rb")) {
        char line[128];
        if (std::fgets(line, sizeof(line), f) != nullptr) {
            const char *open = std::strchr(line, '[');
            const char *close =
                open != nullptr ? std::strchr(open, ']') : nullptr;
            if (close != nullptr)
                mode.assign(open + 1, close);
        }
        std::fclose(f);
    }
    return mode;
}

/** The host a report came from: perf_check.py only compares reports
 *  whose host objects match. */
std::string
hostJson()
{
    std::string cpu = "unknown";
    if (std::FILE *f = std::fopen("/proc/cpuinfo", "rb")) {
        char line[256];
        while (std::fgets(line, sizeof(line), f) != nullptr) {
            if (std::strncmp(line, "model name", 10) != 0)
                continue;
            const char *colon = std::strchr(line, ':');
            if (colon == nullptr)
                continue;
            cpu = colon + 1;
            cpu.erase(0, cpu.find_first_not_of(" \t"));
            cpu.erase(cpu.find_last_not_of(" \t\r\n") + 1);
            break;
        }
        std::fclose(f);
    }
    json::Value host{json::Object{}};
    host.set("nproc", static_cast<std::int64_t>(
                          std::thread::hardware_concurrency()));
    host.set("cpu", cpu);
    host.set("compiler", UNISON_COMPILER);
    host.set("build_type", UNISON_BUILD_TYPE);
    host.set("thp", thpMode());
    return json::writeCompact(host);
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace unison::bench;

    ArgParser args("Engine throughput: simulated accesses per second");
    args.addFlag("quick", "run 8x shorter simulations (CI mode)");
    args.addFlag("json", "emit machine-readable JSON only");
    args.addOption("seed", "42", "workload seed");
    args.addOption("repeats", "0",
                   "interleaved timing repeats, odd (0 = auto: 3 quick, "
                   "5 full)");
    args.addOption("out", "",
                   "also write the JSON report to this file");
    addThreadsOption(args);
    args.parse(argc, argv);

    const bool quick = args.getFlag("quick");
    const bool json = args.getFlag("json");
    const std::uint64_t seed = args.getUint("seed");
    const std::string out_path = args.getString("out");
    const int threads = parseThreads(args);

    std::int64_t repeats = args.getInt("repeats");
    if (repeats == 0)
        repeats = quick ? 3 : 5;
    if (repeats < 1 || repeats % 2 == 0)
        fatal("--repeats must be odd and >= 1, got ", repeats);

    // --- Single-thread engine throughput per design -------------------
    const std::uint64_t accesses = defaultAccessCount(256_MiB, quick);
    const DesignKind designs[] = {DesignKind::Unison, DesignKind::Alloy,
                                  DesignKind::Footprint,
                                  DesignKind::NoDramCache};

    std::vector<Measurement> engine;
    for (DesignKind d : designs) {
        Measurement m;
        m.name = designName(d);
        m.accesses = accesses;
        engine.push_back(m);
    }

    // Untimed warm-up: fault in the allocator/sampler state so the
    // first timed design is not penalized relative to the others.
    {
        ExperimentSpec warm;
        warm.workload = Workload::WebServing;
        warm.design = DesignKind::Unison;
        warm.capacityBytes = 256_MiB;
        warm.accesses = accesses / 8;
        warm.seed = seed;
        runExperiment(warm);
    }

    // Trace file for the replay measurement (written once, replayed
    // once per repeat).
    const std::string trace_path = "perf_engine.trace";
    const std::uint64_t replay_n = quick ? 2'000'000 : 8'000'000;
    {
        WorkloadParams params = workloadParams(Workload::WebServing);
        TraceWriter writer(trace_path, params.numCores);
        SyntheticWorkload workload(params, seed);
        MemoryAccess acc;
        for (std::uint64_t i = 0; i < replay_n; ++i) {
            const int core = static_cast<int>(i % params.numCores);
            workload.next(core, acc);
            acc.core = static_cast<std::uint16_t>(core);
            writer.write(acc);
        }
    }
    Measurement replay;
    replay.name = "trace replay (Unison)";
    replay.accesses = replay_n;

    // Multiprogrammed 8-core spec: two presets sharing the system.
    const auto mix_spec = [&]() {
        ExperimentSpec spec;
        spec.design = DesignKind::Unison;
        spec.capacityBytes = 128_MiB;
        spec.accesses = quick ? 2'000'000 : 8'000'000;
        spec.seed = seed;
        spec.system.numCores = 8;
        spec.mix = {mixPreset(Workload::WebServing, 4),
                    mixPreset(Workload::DataServing, 4)};
        return spec;
    }();
    Measurement mix_engine;
    mix_engine.name = "mix engine (8 cores)";
    mix_engine.accesses = mix_spec.accesses;

    // Memory-backend cost: the same spec through the fast analytic
    // model and the detailed FR-FCFS controller. The tracked ratio is
    // what keeps the detailed backend honest -- it may be slower, but
    // a regression that makes it an order of magnitude slower would
    // silently kill the validation grid.
    const auto backend_spec = [&](MemoryBackendKind kind) {
        ExperimentSpec spec;
        spec.workload = Workload::WebServing;
        spec.design = DesignKind::Unison;
        spec.capacityBytes = 128_MiB;
        spec.accesses = quick ? 1'000'000 : 4'000'000;
        spec.seed = seed;
        spec.system.memoryBackend = kind;
        return spec;
    };
    Measurement backend_fast, backend_detailed;
    backend_fast.name = "backend fast";
    backend_fast.accesses = backend_spec(MemoryBackendKind::Fast).accesses;
    backend_detailed.name = "backend detailed";
    backend_detailed.accesses = backend_fast.accesses;

    // Interleaved repeats: one full round of every measurement, then
    // the next round, so host-speed drift hits all of them equally.
    for (std::int64_t rep = 0; rep < repeats; ++rep) {
        for (std::size_t di = 0; di < engine.size(); ++di) {
            ExperimentSpec spec;
            spec.workload = Workload::WebServing;
            spec.design = designs[di];
            spec.capacityBytes = 256_MiB;
            spec.quick = quick;
            spec.seed = seed;

            const auto t0 = Clock::now();
            runExperiment(spec);
            engine[di].seconds.push_back(secondsSince(t0));
        }
        {
            ExperimentSpec spec;
            spec.design = DesignKind::Unison;
            spec.capacityBytes = 256_MiB;
            TraceReader reader(trace_path);
            System system(spec.system, makeCacheFactory(spec));
            const auto t0 = Clock::now();
            system.run(reader, replay_n);
            replay.seconds.push_back(secondsSince(t0));
        }
        {
            const auto t0 = Clock::now();
            runExperiment(mix_spec);
            mix_engine.seconds.push_back(secondsSince(t0));
        }
        {
            auto t0 = Clock::now();
            runExperiment(backend_spec(MemoryBackendKind::Fast));
            backend_fast.seconds.push_back(secondsSince(t0));
            t0 = Clock::now();
            runExperiment(backend_spec(MemoryBackendKind::Detailed));
            backend_detailed.seconds.push_back(secondsSince(t0));
        }
        std::fprintf(stderr, "perf_engine: round %lld/%lld done\n",
                     static_cast<long long>(rep + 1),
                     static_cast<long long>(repeats));
    }
    std::remove(trace_path.c_str());
    for (const Measurement &m : engine)
        std::fprintf(stderr, "perf_engine: %s median %.0f acc/s\n",
                     m.name.c_str(), m.rate());
    std::fprintf(stderr, "perf_engine: replay median %.0f acc/s\n",
                 replay.rate());

    // --- Datacenter scale: the ycsb-kv arms of the datacenter grid
    // --- (4/64/256 cores, >= 1M distinct keys), each timed once with
    // --- a resident-set proxy read right after the run. Tracks both
    // --- the per-core throughput of the skewed-keyspace generators
    // --- and the O(active-set) metadata footprint at scale. ----------
    struct DatacenterPoint
    {
        int cores = 0;
        std::uint64_t accesses = 0;
        double seconds = 0.0;
        std::uint64_t vmRssKb = 0;
        std::uint64_t vmHwmKb = 0;
    };
    std::vector<DatacenterPoint> datacenter;
    {
        FigureOptions fopts;
        fopts.quick = quick;
        fopts.seed = seed;
        for (const GridPoint &point :
             figureGrid("datacenter", fopts)) {
            if (point.label.find("/ycsb-kv") == std::string::npos)
                continue;
            const ExperimentSpec &spec = point.spec;
            DatacenterPoint dp;
            dp.cores = spec.system.numCores;
            dp.accesses = spec.accesses;
            const auto t0 = Clock::now();
            runExperiment(spec);
            dp.seconds = secondsSince(t0);
            dp.vmRssKb = statusKb("VmRSS");
            dp.vmHwmKb = statusKb("VmHWM");
            datacenter.push_back(dp);
            std::fprintf(
                stderr,
                "perf_engine: datacenter ycsb-kv %d cores %.2fs "
                "(VmRSS %llu kB)\n",
                dp.cores, dp.seconds,
                static_cast<unsigned long long>(dp.vmRssKb));
        }
    }

    // --- Figure-style sweep at --threads (timed once: it measures
    // --- the parallel runner, not the single-thread engine) ----------
    Measurement sweep;
    sweep.name = "figure sweep";
    std::size_t sweep_experiments = 0;
    {
        SweepGrid grid;
        grid.base().quick = quick;
        grid.base().seed = seed;
        grid.overWorkloads({Workload::WebServing,
                            Workload::DataServing})
            .overCapacities({128_MiB, 256_MiB})
            .overDesigns({DesignKind::Unison, DesignKind::Alloy});

        std::vector<ExperimentSpec> specs;
        for (const GridPoint &point : grid.points()) {
            specs.push_back(point.spec);
            sweep.accesses +=
                defaultAccessCount(point.spec.capacityBytes, quick);
        }
        sweep_experiments = specs.size();
        const auto t0 = Clock::now();
        runExperiments(specs, threads);
        sweep.seconds.push_back(secondsSince(t0));
        std::fprintf(stderr,
                     "perf_engine: sweep of %zu done in %.2fs "
                     "(--threads %d)\n",
                     sweep_experiments, sweep.seconds.back(), threads);
    }

    // --- Warm-checkpoint reuse: the convergence grid (shared warm
    // --- prefixes) through the grouping runner vs. spec-by-spec ------
    Measurement ckpt_sweep, ckpt_cold;
    ckpt_sweep.name = "convergence sweep (checkpoint reuse)";
    ckpt_cold.name = "convergence sweep (cold, per spec)";
    {
        FigureOptions fopts;
        fopts.quick = quick;
        fopts.seed = seed;
        std::vector<ExperimentSpec> specs;
        for (const GridPoint &point : figureGrid("convergence", fopts)) {
            specs.push_back(point.spec);
            ckpt_sweep.accesses += point.spec.accesses;
        }
        ckpt_cold.accesses = ckpt_sweep.accesses;

        auto t0 = Clock::now();
        runExperiments(specs, threads); // groups by warm prefix
        ckpt_sweep.seconds.push_back(secondsSince(t0));

        t0 = Clock::now();
        for (const ExperimentSpec &spec : specs)
            runExperiment(spec); // every run re-simulates its warm-up
        ckpt_cold.seconds.push_back(secondsSince(t0));
        std::fprintf(stderr,
                     "perf_engine: convergence sweep %.2fs with "
                     "checkpoint reuse, %.2fs cold\n",
                     ckpt_sweep.seconds.back(),
                     ckpt_cold.seconds.back());
    }

    // --- Set-up: building the System of a 1 GB point, whose tag, LRU
    // --- and predictor arrays grow with the capacity (destroyed
    // --- untimed), interleaved across designs --------------------------
    const DesignKind setup_designs[] = {DesignKind::Alloy,
                                        DesignKind::Unison,
                                        DesignKind::Footprint};
    std::vector<Measurement> setup;
    for (DesignKind d : setup_designs) {
        Measurement m;
        m.name = designName(d);
        setup.push_back(m);
    }
    for (std::int64_t rep = 0; rep < repeats; ++rep) {
        for (std::size_t di = 0; di < setup.size(); ++di) {
            ExperimentSpec spec;
            spec.design = setup_designs[di];
            spec.capacityBytes = 1_GiB;
            const auto t0 = Clock::now();
            auto system = std::make_unique<System>(
                spec.system, makeCacheFactory(spec));
            setup[di].seconds.push_back(secondsSince(t0));
        }
    }
    for (const Measurement &m : setup)
        std::fprintf(stderr, "perf_engine: %s 1 GB set-up median %.1f ms\n",
                     m.name.c_str(), 1e3 * m.medianSeconds());

    // --- Report -------------------------------------------------------
    // Schema-stable JSON (tracked as BENCH_engine.json at the repo
    // root): add fields if needed; removing or renaming one bumps the
    // schema version.
    std::string report;
    appendf(report,
            "{\n  \"schema\": \"perf_engine/6\",\n"
            "  \"host\": %s,\n"
            "  \"quick\": %s,\n  \"threads\": %d,\n"
            "  \"repeats\": %lld,\n",
            hostJson().c_str(), quick ? "true" : "false", threads,
            static_cast<long long>(repeats));
    report += "  \"engine\": [\n";
    for (std::size_t i = 0; i < engine.size(); ++i) {
        const Measurement &m = engine[i];
        appendf(report,
                "    {\"design\": \"%s\", \"accesses\": %llu, "
                "\"seconds\": %.6f, \"accesses_per_sec\": %.0f}%s\n",
                m.name.c_str(),
                static_cast<unsigned long long>(m.accesses),
                m.medianSeconds(), m.rate(),
                i + 1 < engine.size() ? "," : "");
    }
    report += "  ],\n";
    appendf(report,
            "  \"replay\": {\"accesses\": %llu, \"seconds\": %.6f, "
            "\"accesses_per_sec\": %.0f},\n",
            static_cast<unsigned long long>(replay.accesses),
            replay.medianSeconds(), replay.rate());
    appendf(report,
            "  \"mix_engine\": {\"accesses\": %llu, \"seconds\": %.6f, "
            "\"accesses_per_sec\": %.0f},\n",
            static_cast<unsigned long long>(mix_engine.accesses),
            mix_engine.medianSeconds(), mix_engine.rate());
    report += "  \"datacenter\": [\n";
    for (std::size_t i = 0; i < datacenter.size(); ++i) {
        const DatacenterPoint &dp = datacenter[i];
        appendf(report,
                "    {\"cores\": %d, \"accesses\": %llu, "
                "\"seconds\": %.6f, \"accesses_per_sec\": %.0f, "
                "\"vm_rss_kb\": %llu, \"vm_hwm_kb\": %llu}%s\n",
                dp.cores,
                static_cast<unsigned long long>(dp.accesses),
                dp.seconds,
                dp.seconds > 0.0
                    ? static_cast<double>(dp.accesses) / dp.seconds
                    : 0.0,
                static_cast<unsigned long long>(dp.vmRssKb),
                static_cast<unsigned long long>(dp.vmHwmKb),
                i + 1 < datacenter.size() ? "," : "");
    }
    report += "  ],\n";
    {
        const double fast_rate = backend_fast.rate();
        const double detailed_rate = backend_detailed.rate();
        appendf(report,
                "  \"backend\": {\"accesses\": %llu, "
                "\"fast_seconds\": %.6f, \"fast_per_sec\": %.0f, "
                "\"detailed_seconds\": %.6f, \"detailed_per_sec\": "
                "%.0f, \"fast_over_detailed\": %.3f},\n",
                static_cast<unsigned long long>(backend_fast.accesses),
                backend_fast.medianSeconds(), fast_rate,
                backend_detailed.medianSeconds(), detailed_rate,
                detailed_rate > 0.0 ? fast_rate / detailed_rate : 0.0);
    }
    appendf(report,
            "  \"ckpt_sweep\": {\"accesses\": %llu, \"seconds\": %.6f, "
            "\"accesses_per_sec\": %.0f},\n",
            static_cast<unsigned long long>(ckpt_sweep.accesses),
            ckpt_sweep.medianSeconds(), ckpt_sweep.rate());
    appendf(report,
            "  \"ckpt_cold\": {\"accesses\": %llu, \"seconds\": %.6f, "
            "\"accesses_per_sec\": %.0f},\n",
            static_cast<unsigned long long>(ckpt_cold.accesses),
            ckpt_cold.medianSeconds(), ckpt_cold.rate());
    appendf(report,
            "  \"sweep\": {\"experiments\": %zu, \"accesses\": %llu, "
            "\"seconds\": %.6f, \"accesses_per_sec\": %.0f},\n",
            sweep_experiments,
            static_cast<unsigned long long>(sweep.accesses),
            sweep.medianSeconds(), sweep.rate());
    report += "  \"setup\": [\n";
    for (std::size_t i = 0; i < setup.size(); ++i)
        appendf(report,
                "    {\"design\": \"%s\", \"capacity_bytes\": %llu, "
                "\"seconds\": %.6f}%s\n",
                setup[i].name.c_str(),
                static_cast<unsigned long long>(1_GiB),
                setup[i].medianSeconds(),
                i + 1 < setup.size() ? "," : "");
    report += "  ]\n}\n";

    if (!out_path.empty()) {
        // Status-checked write: a full disk must not leave CI
        // tracking a silently truncated report.
        const std::vector<std::uint8_t> bytes(report.begin(),
                                              report.end());
        const SimStatus status = writeFileBytes(out_path, bytes);
        if (!status.ok())
            exitWith(status.code, status.message);
        std::fprintf(stderr, "perf_engine: wrote %s\n",
                     out_path.c_str());
    }

    if (json) {
        std::fputs(report.c_str(), stdout);
        return 0;
    }

    Table t({"benchmark", "accesses", "median (s)", "accesses/sec"});
    for (const Measurement &m : engine) {
        t.beginRow();
        t.add(m.name);
        t.add(m.accesses);
        t.add(m.medianSeconds(), 3);
        t.add(m.rate(), 0);
    }
    t.beginRow();
    t.add(replay.name);
    t.add(replay.accesses);
    t.add(replay.medianSeconds(), 3);
    t.add(replay.rate(), 0);
    t.beginRow();
    t.add(mix_engine.name);
    t.add(mix_engine.accesses);
    t.add(mix_engine.medianSeconds(), 3);
    t.add(mix_engine.rate(), 0);
    for (const DatacenterPoint &dp : datacenter) {
        t.beginRow();
        t.add("datacenter ycsb-kv (" + std::to_string(dp.cores) +
              " cores)");
        t.add(dp.accesses);
        t.add(dp.seconds, 3);
        t.add(dp.seconds > 0.0
                  ? static_cast<double>(dp.accesses) / dp.seconds
                  : 0.0,
              0);
    }
    for (const Measurement *m : {&backend_fast, &backend_detailed}) {
        t.beginRow();
        t.add(m->name);
        t.add(m->accesses);
        t.add(m->medianSeconds(), 3);
        t.add(m->rate(), 0);
    }
    t.beginRow();
    t.add(ckpt_sweep.name);
    t.add(ckpt_sweep.accesses);
    t.add(ckpt_sweep.medianSeconds(), 3);
    t.add(ckpt_sweep.rate(), 0);
    t.beginRow();
    t.add(ckpt_cold.name);
    t.add(ckpt_cold.accesses);
    t.add(ckpt_cold.medianSeconds(), 3);
    t.add(ckpt_cold.rate(), 0);
    t.beginRow();
    t.add(sweep.name + " (--threads " + std::to_string(threads) + ")");
    t.add(sweep.accesses);
    t.add(sweep.medianSeconds(), 3);
    t.add(sweep.rate(), 0);
    for (const Measurement &m : setup) {
        t.beginRow();
        t.add(m.name + " set-up (1 GB)");
        t.add("-");
        t.add(m.medianSeconds(), 3);
        t.add("-");
    }
    std::printf("\n== Engine throughput (median of %lld interleaved "
                "repeats) ==\n",
                static_cast<long long>(repeats));
    std::fputs(t.toString().c_str(), stdout);
    return 0;
}

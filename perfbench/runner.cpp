/**
 * @file
 * Runner program of the figure-level benchmark (README.md beside this file).
 * Runs one named workload -- a paper figure grid -- and writes one raw
 * JSON document that run.py turns into metrics:
 *
 *  - untraced: set-up rounds (every point's System and access source
 *    built, timed and destroyed), then timed runs of every point for
 *    as long as --seconds allows: whole-grid passes through
 *    runExperiments where the workload has runner threads, otherwise
 *    one point at a time, round-robin over the grid;
 *  - traced (--trace 1): one untraced pass, then one pass in which
 *    decorators defined here time every call into the access source,
 *    the DRAM-cache design and the off-chip backend, and a standalone
 *    CacheHierarchy replays the tail of the recorded reference stream.
 *    Nothing inside src/ is instrumented.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/alloy_cache.hh"
#include "common/argparse.hh"
#include "common/json.hh"
#include "common/version.hh"
#include "core/unison_cache.hh"
#include "core/unison_wp.hh"
#include "sim/figures.hh"
#include "sim/runner.hh"
#include "sim/spec_json.hh"
#include "store/result_store.hh"
#include "trace/mix.hh"
#include "trace/workload.hh"

namespace {

using namespace unison;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

std::uint64_t
nanosBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** Keeps benchmark-only computations observable to the optimizer. */
std::atomic<std::uint64_t> g_sink{0};

// ------------------------------------------------------------ workloads

/** One benchmark workload: a figure grid and how it is run. */
struct WorkloadDef
{
    const char *name;
    const char *figure;
    int threads;               //!< runExperiments worker threads
    MemoryBackendKind backend; //!< timing model of every DRAM pool
};

// fig7 is the one workload with runner parallelism. Two threads keep
// its peak RSS and run-to-run spread small on a 4-vCPU host; four
// finished sooner but spread over more than a tenth.
const WorkloadDef kWorkloads[] = {
    {"fig7", "fig7", 2, MemoryBackendKind::Fast},
    {"datacenter", "datacenter", 1, MemoryBackendKind::Fast},
    {"mixes-detailed", "mixes", 1, MemoryBackendKind::Detailed},
};

/** Set-up rounds per untraced run: at least kMinSetupRounds, then more
 *  while they have used less than kSetupShare of the measuring time. */
constexpr int kMinSetupRounds = 5;
constexpr int kMaxSetupRounds = 25;
constexpr double kSetupShare = 0.1;

/** Cap on timed runs of one point per untraced run. */
constexpr std::size_t kMaxReps = 64;

std::uint64_t
totalAccesses(const ExperimentSpec &spec)
{
    return spec.accesses != 0
               ? spec.accesses
               : defaultAccessCount(spec.capacityBytes, spec.quick);
}

/** The access source runExperiment builds for a spec. */
std::unique_ptr<AccessSource>
makeSource(const ExperimentSpec &spec)
{
    if (!spec.mix.empty())
        return std::make_unique<MixedWorkload>(
            spec.mix, spec.system.numCores, spec.seed);
    WorkloadParams params = spec.customWorkload
                                ? *spec.customWorkload
                                : workloadParams(spec.workload);
    params.numCores = spec.system.numCores;
    return std::make_unique<SyntheticWorkload>(params, spec.seed);
}

/** The per-core source labels runExperiment writes into a result. */
void
labelCores(const ExperimentSpec &spec, const AccessSource &source,
           SimResult &result)
{
    const std::string synthetic =
        spec.customWorkload ? spec.customWorkload->name
                            : workloadParams(spec.workload).name;
    for (std::size_t c = 0; c < result.perCore.size(); ++c)
        result.perCore[c].sourceName =
            spec.mix.empty()
                ? synthetic
                : static_cast<const MixedWorkload &>(source).coreLabel(
                      static_cast<int>(c));
}

std::string
resultText(const SimResult &result)
{
    return json::write(resultToJson(result));
}

// -------------------------------------------------------------- tracing

/** Calls into one layer and the summed duration of their spans. */
struct Span
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    template <typename Fn>
    auto
    time(Fn &&fn)
    {
        const Clock::time_point start = Clock::now();
        auto out = fn();
        const Clock::time_point end = Clock::now();
        ++calls;
        ns += nanosBetween(start, end);
        return out;
    }
};

/**
 * Times every next() of the wrapped source and keeps the last
 * kTailRefs references. System probes the SRAM hierarchy inline, so
 * that layer is timed by replaying this tail through a standalone
 * CacheHierarchy (replayTail) instead of in place.
 */
class TimedSource final : public AccessSource
{
  public:
    static constexpr std::size_t kTailRefs = std::size_t{1} << 20;

    explicit TimedSource(AccessSource &inner)
        : inner_(inner), tail_(kTailRefs)
    {
    }

    AccessSourceKind kind() const override
    {
        return AccessSourceKind::Other;
    }
    int numCores() const override { return inner_.numCores(); }

    bool
    next(int core, MemoryAccess &out) override
    {
        const bool ok = span_.time([&] { return inner_.next(core, out); });
        if (ok)
            tail_[recorded_++ & (kTailRefs - 1)] = {out.addr, core,
                                                    out.isWrite};
        return ok;
    }

    const Span &span() const { return span_; }

    /** Replay the tail through a fresh hierarchy: the first half warms
     *  it, the second half is timed. Returns ns per timed reference. */
    double
    replayTail(int num_cores, const HierarchyConfig &config) const
    {
        const std::uint64_t count =
            std::min<std::uint64_t>(recorded_, kTailRefs);
        const std::uint64_t first = recorded_ - count;
        CacheHierarchy hierarchy(num_cores, config);
        std::uint64_t sink = 0;
        const auto play = [&](std::uint64_t from, std::uint64_t to) {
            for (std::uint64_t i = from; i < to; ++i) {
                const Ref &ref = tail_[(first + i) & (kTailRefs - 1)];
                const HierarchyOutcome outcome =
                    hierarchy.access(ref.core, ref.addr, ref.isWrite);
                sink += static_cast<std::uint64_t>(outcome.level) +
                        static_cast<std::uint64_t>(outcome.numWritebacks);
            }
        };
        const std::uint64_t warm = count / 2;
        play(0, warm);
        const Clock::time_point start = Clock::now();
        play(warm, count);
        const Clock::time_point end = Clock::now();
        g_sink.fetch_add(sink, std::memory_order_relaxed);
        const std::uint64_t timed = count - warm;
        return timed != 0 ? static_cast<double>(nanosBetween(start, end)) /
                                static_cast<double>(timed)
                          : 0.0;
    }

  private:
    struct Ref
    {
        Addr addr;
        int core;
        bool isWrite;
    };

    AccessSource &inner_;
    Span span_;
    std::vector<Ref> tail_;
    std::uint64_t recorded_ = 0;
};

/** Times every access to the off-chip backend; the rest forwards. */
class TimedBackend final : public MemoryBackend
{
  public:
    TimedBackend(MemoryBackend &inner, const DramTimingParams &params)
        : MemoryBackend(inner.organization(), params), inner_(inner)
    {
    }

    DramAccessTiming
    rowAccess(std::uint64_t row_idx, std::uint32_t bytes, bool is_write,
              Cycle earliest) override
    {
        return span_.time([&] {
            return inner_.rowAccess(row_idx, bytes, is_write, earliest);
        });
    }

    DramPoolStats stats() const override { return inner_.stats(); }
    void resetStats() override { inner_.resetStats(); }
    MemoryQueueStats queueStats() const override
    {
        return inner_.queueStats();
    }
    void saveState(StateWriter &out) const override
    {
        inner_.saveState(out);
    }
    void loadState(StateReader &in) override { inner_.loadState(in); }

    const Span &span() const { return span_; }

  private:
    MemoryBackend &inner_;
    Span span_;
};

/**
 * Times every access to the wrapped design, which reaches the off-chip
 * pool only through the owned TimedBackend. System reads the design's
 * counters through the non-virtual DramCache::stats() and its
 * predictor accuracies through the kind tag, both of which this
 * decorator hides; copyHiddenFields() restores them from inner().
 */
class TimedCache final : public DramCache
{
  public:
    TimedCache(std::unique_ptr<DramCache> inner,
               std::unique_ptr<TimedBackend> offchip)
        : DramCache(offchip.get()),
          timedOffchip_(std::move(offchip)),
          inner_(std::move(inner))
    {
    }

    DramCacheResult
    access(const DramCacheRequest &req) override
    {
        return span_.time([&] { return inner_->access(req); });
    }

    std::string name() const override { return inner_->name(); }
    std::uint64_t capacityBytes() const override
    {
        return inner_->capacityBytes();
    }
    MemoryBackend *stackedDram() override { return inner_->stackedDram(); }
    void resetStats() override { inner_->resetStats(); }

    const DramCache &inner() const { return *inner_; }
    const Span &span() const { return span_; }
    const Span &offchipSpan() const { return timedOffchip_->span(); }

  private:
    std::unique_ptr<TimedBackend> timedOffchip_; //!< outlives inner_
    std::unique_ptr<DramCache> inner_;
    Span span_;
};

/** The SimResult fields System fills through the design's concrete
 *  type (see System::fillPredictorStats), read from the real design. */
void
copyHiddenFields(const DramCache &design, SimResult &result)
{
    result.cache = design.stats();
    const MissPredictor *mp = nullptr;
    switch (design.kind()) {
      case DramCacheKind::Unison: {
        const auto &uc = static_cast<const UnisonCache &>(design);
        result.wpAccuracyPercent = uc.wayPredictorStats().accuracyPercent();
        mp = uc.missPredictor();
        break;
      }
      case DramCacheKind::UnisonWp: {
        const auto &wc = static_cast<const UnisonWpCache &>(design);
        result.wpAccuracyPercent = wc.wayPredictorStats().accuracyPercent();
        mp = wc.missPredictor();
        break;
      }
      case DramCacheKind::Alloy:
        mp = static_cast<const AlloyCache &>(design).missPredictor();
        break;
      default:
        break;
    }
    if (mp != nullptr) {
        result.mpAccuracyPercent = mp->stats().accuracyPercent();
        result.mpOverfetchPercent = mp->stats().overfetchPercent();
    }
}

/** Everything one traced point measured. */
struct PointTrace
{
    Span next, cache, offchip;
    std::uint64_t systemNs = 0; //!< System constructor
    std::uint64_t runNs = 0;    //!< System::run
    double replayNsPerAccess = 0.0;
};

/** runExperiment with every layer boundary wrapped in a decorator. */
SimResult
runTracedPoint(const ExperimentSpec &spec, PointTrace &trace)
{
    spec.validate();
    const CacheFactory design = makeCacheFactory(spec);
    TimedCache *timed_cache = nullptr;
    const CacheFactory factory =
        [&](MemoryBackend *offchip) -> std::unique_ptr<DramCache> {
        auto backend = std::make_unique<TimedBackend>(
            *offchip, spec.system.offchipTiming);
        std::unique_ptr<DramCache> cache = design(backend.get());
        auto timed = std::make_unique<TimedCache>(std::move(cache),
                                                  std::move(backend));
        timed_cache = timed.get();
        return timed;
    };

    const Clock::time_point t0 = Clock::now();
    System system(spec.system, factory);
    trace.systemNs = nanosBetween(t0, Clock::now());
    const std::unique_ptr<AccessSource> source = makeSource(spec);
    TimedSource timed_source(*source);
    const Clock::time_point t1 = Clock::now();
    SimResult result = system.run(timed_source, totalAccesses(spec));
    trace.runNs = nanosBetween(t1, Clock::now());

    copyHiddenFields(timed_cache->inner(), result);
    labelCores(spec, *source, result);

    trace.next = timed_source.span();
    trace.cache = timed_cache->span();
    trace.offchip = timed_cache->offchipSpan();
    trace.replayNsPerAccess = timed_source.replayTail(
        spec.system.numCores, spec.system.hierarchy);
    return result;
}

// ---------------------------------------------------------- calibration

constexpr int kCalibrationCalls = 200'000;
constexpr int kCalibrationRounds = 9;

class NullSource final : public AccessSource
{
  public:
    AccessSourceKind kind() const override
    {
        return AccessSourceKind::Other;
    }
    int numCores() const override { return 1; }
    bool
    next(int, MemoryAccess &out) override
    {
        out.addr += kBlockBytes;
        return true;
    }
};

class NullCache final : public DramCache
{
  public:
    NullCache() : DramCache(nullptr) {}
    DramCacheResult
    access(const DramCacheRequest &req) override
    {
        return {req.cycle + 1, true};
    }
    std::string name() const override { return "null"; }
    std::uint64_t capacityBytes() const override { return 0; }
};

class NullBackend final : public MemoryBackend
{
  public:
    NullBackend()
        : MemoryBackend(offChipDramOrganization(), offChipDramTiming())
    {
    }
    DramAccessTiming
    rowAccess(std::uint64_t, std::uint32_t, bool, Cycle earliest) override
    {
        return {earliest + 1, false};
    }
    DramPoolStats stats() const override { return {}; }
    void resetStats() override {}
    void saveState(StateWriter &) const override {}
    void loadState(StateReader &) override {}
};

[[gnu::noinline]] double
perCallNs(AccessSource &source)
{
    MemoryAccess acc;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalibrationCalls; ++i)
        source.next(0, acc);
    const Clock::time_point end = Clock::now();
    g_sink.fetch_add(acc.addr, std::memory_order_relaxed);
    return static_cast<double>(nanosBetween(start, end)) /
           kCalibrationCalls;
}

[[gnu::noinline]] double
perCallNs(DramCache &cache)
{
    DramCacheRequest req;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalibrationCalls; ++i)
        req.cycle = cache.access(req).doneAt;
    const Clock::time_point end = Clock::now();
    g_sink.fetch_add(req.cycle, std::memory_order_relaxed);
    return static_cast<double>(nanosBetween(start, end)) /
           kCalibrationCalls;
}

[[gnu::noinline]] double
perCallNs(MemoryBackend &backend)
{
    Cycle at = 0;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalibrationCalls; ++i)
        at = backend
                 .rowAccess(static_cast<std::uint64_t>(i), kBlockBytes,
                            false, at)
                 .completion;
    const Clock::time_point end = Clock::now();
    g_sink.fetch_add(at, std::memory_order_relaxed);
    return static_cast<double>(nanosBetween(start, end)) /
           kCalibrationCalls;
}

/** What a decorated call costs its caller beyond the bare call. */
template <typename Layer>
double
decoratorOverheadNs(Layer &bare, Layer &decorated)
{
    std::vector<double> diffs;
    for (int r = 0; r < kCalibrationRounds; ++r) {
        const double plain = perCallNs(bare);
        diffs.push_back(perCallNs(decorated) - plain);
    }
    return median(diffs);
}

/**
 * The timer's own cost: span_ns is what an empty span reads (taken off
 * every span), and the *_overhead_ns values are what one decorated
 * call adds to the time of whatever encloses it (taken off the engine
 * and design times that contain such calls).
 */
json::Value
calibrate()
{
    std::vector<double> spans;
    for (int r = 0; r < kCalibrationRounds; ++r) {
        Span span;
        for (int i = 0; i < kCalibrationCalls; ++i)
            span.time([] { return 0; });
        spans.push_back(static_cast<double>(span.ns) /
                        static_cast<double>(span.calls));
    }

    NullSource null_source;
    TimedSource timed_source(null_source);
    NullBackend null_backend;
    TimedBackend timed_backend(null_backend, offChipDramTiming());
    NullCache null_cache;
    TimedCache timed_cache(std::make_unique<NullCache>(),
                           std::make_unique<TimedBackend>(
                               null_backend, offChipDramTiming()));

    json::Value out{json::Object{}};
    out.set("span_ns", median(spans));
    out.set("next_overhead_ns",
            decoratorOverheadNs<AccessSource>(null_source, timed_source));
    out.set("cache_overhead_ns",
            decoratorOverheadNs<DramCache>(null_cache, timed_cache));
    out.set("offchip_overhead_ns",
            decoratorOverheadNs<MemoryBackend>(null_backend,
                                               timed_backend));
    return out;
}

// --------------------------------------------------------------- passes

struct Pass
{
    double wallS = 0.0;
    std::vector<double> pointS;
    std::vector<SimResult> results;
};

/** One whole-grid run through runExperiments, as users run figures. */
Pass
runUntracedPass(const std::vector<ExperimentSpec> &specs, int threads)
{
    Pass pass;
    pass.pointS.assign(specs.size(), 0.0);
    // runExperiments serializes on_done, and a worker takes its next
    // point as soon as it has reported, so the time since the same
    // thread's previous report is the point's own time.
    std::unordered_map<std::thread::id, Clock::time_point> last_report;
    const Clock::time_point start = Clock::now();
    pass.results = runExperiments(
        specs, threads, [&](std::size_t i, const SimResult &) {
            const Clock::time_point now = Clock::now();
            Clock::time_point &last =
                last_report.try_emplace(std::this_thread::get_id(), start)
                    .first->second;
            pass.pointS[i] = secondsBetween(last, now);
            last = now;
        });
    pass.wallS = secondsBetween(start, Clock::now());
    return pass;
}

/** Build (then destroy, untimed) every point's System and source;
 *  returns each point's seconds. */
std::vector<double>
setupRound(const std::vector<ExperimentSpec> &specs)
{
    std::vector<double> seconds;
    for (const ExperimentSpec &spec : specs) {
        const Clock::time_point start = Clock::now();
        const auto system =
            std::make_unique<System>(spec.system, makeCacheFactory(spec));
        const std::unique_ptr<AccessSource> source = makeSource(spec);
        seconds.push_back(secondsBetween(start, Clock::now()));
    }
    return seconds;
}

/** Run fn(0..n-1) on `threads` threads (the caller is one of them);
 *  fn must not throw. */
template <typename Fn>
void
parallelFor(std::size_t n, int threads, const Fn &fn)
{
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
}

/** Insert every result into a scratch store, then look each one up.
 *  Returns the indices whose lookup missed or differed. */
json::Array
storeBench(const std::vector<ExperimentSpec> &specs,
           const std::vector<SimResult> &results, const std::string &dir,
           json::Array &insert_ms, json::Array &lookup_ms)
{
    json::Array bad;
    std::filesystem::remove_all(dir);
    {
        ResultStore store(dir);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const Clock::time_point start = Clock::now();
            store.insert(specs[i], results[i]);
            insert_ms.push_back(secondsBetween(start, Clock::now()) * 1e3);
        }
        for (std::size_t i = 0; i < specs.size(); ++i) {
            SimResult out;
            const Clock::time_point start = Clock::now();
            const bool hit = store.lookup(specs[i], out);
            lookup_ms.push_back(secondsBetween(start, Clock::now()) * 1e3);
            if (!hit || resultText(out) != resultText(results[i]))
                bad.push_back(static_cast<std::uint64_t>(i));
        }
    }
    std::filesystem::remove_all(dir);
    return bad;
}

// ----------------------------------------------------------------- main

/** Kilobyte value of a /proc/self/status field, 0 without procfs. */
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

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 30.0;
    bool trace = false;
    std::string out;
    std::string scratch = ".bench_build/store-scratch";
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\n"
                 "usage: perfbench_runner --workload "
                 "<fig7|datacenter|mixes-detailed> --out FILE [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scratch DIR]\n",
                 problem.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload")
                opts.workload = value;
            else if (key == "--seed")
                opts.seed = std::stoull(value);
            else if (key == "--seconds")
                opts.seconds = std::stod(value);
            else if (key == "--trace" && (value == "0" || value == "1"))
                opts.trace = value == "1";
            else if (key == "--out")
                opts.out = value;
            else if (key == "--scratch")
                opts.scratch = value;
            else
                usage("bad option " + key + " " + value);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (opts.workload.empty() || opts.out.empty())
        usage("--workload and --out are required");
    return opts;
}

json::Value
pointsJson(const std::vector<ExperimentSpec> &specs,
           const std::vector<std::string> &labels)
{
    json::Array points;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ExperimentSpec &spec = specs[i];
        const DramTimingCpu timing =
            DramTimingCpu::fromParams(spec.system.offchipTiming);
        json::Value p{json::Object{}};
        p.set("label", labels[i]);
        p.set("workload", specWorkloadName(spec));
        p.set("capacity", formatSize(spec.capacityBytes));
        p.set("design",
              DesignRegistry::instance().byKind(spec.designKind()).id);
        p.set("backend", memoryBackendId(spec.system.memoryBackend));
        p.set("cores", spec.system.numCores);
        p.set("accesses", totalAccesses(spec));
        p.set("offchip_peak_bytes_per_cycle",
              spec.system.offchipOrg.numChannels *
                  static_cast<double>(timing.busBytesPerDramCycle) /
                  timing.cpuPerDramCycle);
        points.push_back(std::move(p));
    }
    return json::Value(std::move(points));
}

json::Value
spanJson(const Span &span)
{
    json::Value out{json::Object{}};
    out.set("calls", span.calls);
    out.set("ns", span.ns);
    return out;
}

json::Value
doublesJson(const std::vector<double> &values)
{
    json::Array out;
    for (double v : values)
        out.push_back(v);
    return json::Value(std::move(out));
}

/** One array of seconds per point. */
json::Value
perPointJson(const std::vector<std::vector<double>> &seconds)
{
    json::Array out;
    for (const std::vector<double> &runs : seconds)
        out.push_back(doublesJson(runs));
    return json::Value(std::move(out));
}

int
run(const Options &opts)
{
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (opts.workload == w.name)
            def = &w;
    if (def == nullptr)
        usage("unknown workload '" + opts.workload + "'");

    FigureOptions figure_opts;
    figure_opts.quick = true;
    figure_opts.seed = opts.seed;
    std::vector<ExperimentSpec> specs;
    std::vector<std::string> labels;
    for (GridPoint &point : figureGrid(def->figure, figure_opts)) {
        point.spec.system.memoryBackend = def->backend;
        labels.push_back(point.label);
        specs.push_back(std::move(point.spec));
    }

    json::Value build{json::Object{}};
    build.set("compiler", PERFBENCH_COMPILER);
    build.set("build_type", PERFBENCH_BUILD_TYPE);
    build.set("code_version", kSimCodeVersion);

    json::Value doc{json::Object{}};
    doc.set("schema", "perfbench-raw/1");
    doc.set("workload", def->name);
    doc.set("seed", opts.seed);
    doc.set("threads", def->threads);
    doc.set("traced", opts.trace);
    doc.set("build", std::move(build));
    doc.set("points", pointsJson(specs, labels));

    std::vector<SimResult> reference;
    json::Array mismatched;
    if (!opts.trace) {
        const Clock::time_point start = Clock::now();
        const auto elapsed = [&] {
            return secondsBetween(start, Clock::now());
        };

        std::vector<std::vector<double>> setup_s(specs.size());
        for (int r = 0; r < kMaxSetupRounds &&
                        (r < kMinSetupRounds ||
                         elapsed() < kSetupShare * opts.seconds);
             ++r) {
            const std::vector<double> round = setupRound(specs);
            for (std::size_t i = 0; i < specs.size(); ++i)
                setup_s[i].push_back(round[i]);
        }
        doc.set("setup_s", perPointJson(setup_s));

        // Every timed run of every point; a point whose result differs
        // from its first run's fails the output check.
        std::vector<std::vector<double>> point_s(specs.size());
        std::vector<std::string> first(specs.size());
        std::vector<char> differs(specs.size(), 0);
        reference.resize(specs.size());
        const auto record = [&](std::size_t i, double seconds,
                                SimResult &&result) {
            point_s[i].push_back(seconds);
            std::string text = resultText(result);
            if (point_s[i].size() == 1) {
                first[i] = std::move(text);
                reference[i] = std::move(result);
            } else if (text != first[i]) {
                differs[i] = 1;
            }
        };

        json::Array pass_wall_s;
        if (def->threads > 1) {
            // Whole passes, as users run figures: go on while one more
            // pass as long as the last one still fits.
            double last = 0.0;
            do {
                Pass pass = runUntracedPass(specs, def->threads);
                for (std::size_t i = 0; i < specs.size(); ++i)
                    record(i, pass.pointS[i], std::move(pass.results[i]));
                last = pass.wallS;
                pass_wall_s.push_back(last);
                std::fprintf(stderr, "perfbench: %s pass %zu: %.3f s\n",
                             def->name, pass_wall_s.size(), last);
            } while (pass_wall_s.size() < kMaxReps &&
                     elapsed() + last <= opts.seconds);
        } else {
            // Serial: one point at a time, round-robin over the grid, so
            // each point's runs spread over the whole measuring time and
            // a slow spell of a shared host costs single runs rather
            // than whole passes. A point runs again while its previous
            // run would still fit.
            for (std::size_t k = 0; k < kMaxReps * specs.size(); ++k) {
                const std::size_t i = k % specs.size();
                if (k >= specs.size() &&
                    elapsed() + point_s[i].back() > opts.seconds)
                    break;
                const Clock::time_point t0 = Clock::now();
                SimResult result = runExperiment(specs[i]);
                record(i, secondsBetween(t0, Clock::now()),
                       std::move(result));
                if (i + 1 == specs.size())
                    std::fprintf(stderr,
                                 "perfbench: %s round %zu ends at %.3f s\n",
                                 def->name, k / specs.size() + 1,
                                 elapsed());
            }
        }
        doc.set("point_s", perPointJson(point_s));
        doc.set("pass_wall_s", json::Value(std::move(pass_wall_s)));
        for (std::size_t i = 0; i < specs.size(); ++i)
            if (differs[i])
                mismatched.push_back(static_cast<std::uint64_t>(i));
    } else {
        doc.set("calibration", calibrate());
        Pass untraced = runUntracedPass(specs, def->threads);
        std::fprintf(stderr, "perfbench: %s untraced pass: %.3f s\n",
                     def->name, untraced.wallS);

        std::vector<SimResult> traced(specs.size());
        std::vector<PointTrace> traces(specs.size());
        std::vector<std::string> errors(specs.size());
        const Clock::time_point start = Clock::now();
        parallelFor(specs.size(), def->threads, [&](std::size_t i) {
            try {
                traced[i] = runTracedPoint(specs[i], traces[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
        const double traced_wall = secondsBetween(start, Clock::now());
        std::fprintf(stderr, "perfbench: %s traced pass: %.3f s\n",
                     def->name, traced_wall);

        json::Array points;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!errors[i].empty())
                std::fprintf(stderr, "perfbench: %s threw: %s\n",
                             labels[i].c_str(), errors[i].c_str());
            if (!errors[i].empty() ||
                resultText(traced[i]) != resultText(untraced.results[i]))
                mismatched.push_back(static_cast<std::uint64_t>(i));
            const PointTrace &t = traces[i];
            json::Value p{json::Object{}};
            p.set("next", spanJson(t.next));
            p.set("cache", spanJson(t.cache));
            p.set("offchip", spanJson(t.offchip));
            p.set("system_ns", t.systemNs);
            p.set("run_ns", t.runNs);
            p.set("replay_ns_per_access", t.replayNsPerAccess);
            points.push_back(std::move(p));
        }
        json::Value traced_json{json::Object{}};
        traced_json.set("untraced_wall_s", untraced.wallS);
        traced_json.set("untraced_point_s", doublesJson(untraced.pointS));
        traced_json.set("traced_wall_s", traced_wall);
        traced_json.set("points", json::Value(std::move(points)));
        doc.set("traced_run", std::move(traced_json));

        json::Array insert_ms, lookup_ms;
        json::Array store_bad = storeBench(specs, untraced.results,
                                           opts.scratch, insert_ms,
                                           lookup_ms);
        json::Value store{json::Object{}};
        store.set("insert_ms", json::Value(std::move(insert_ms)));
        store.set("lookup_ms", json::Value(std::move(lookup_ms)));
        store.set("mismatched_points", json::Value(std::move(store_bad)));
        doc.set("store", std::move(store));
        reference = std::move(untraced.results);
    }

    json::Array results;
    for (const SimResult &r : reference)
        results.push_back(resultToJson(r));
    doc.set("results", json::Value(std::move(results)));
    doc.set("mismatched_points", json::Value(std::move(mismatched)));
    doc.set("peak_rss_kb", statusKb("VmHWM"));

    std::ofstream out(opts.out, std::ios::binary | std::ios::trunc);
    out << json::write(doc);
    out.close();
    if (!out) {
        std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                     opts.out.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
        return 1;
    }
}

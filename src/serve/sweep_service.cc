#include "serve/sweep_service.hh"

#include <utility>
#include <vector>

#include "sim/runner.hh"

namespace unison {
namespace serve {

SweepService::SweepService(ResultStore &store, int threads)
    : store_(store), threads_(threads)
{
}

void
SweepService::publish(const std::string &fp, const SimResult *result,
                      const std::string &error)
{
    std::shared_ptr<Inflight> fl;
    {
        std::lock_guard<std::mutex> lock(mapMutex_);
        const auto it = inflight_.find(fp);
        if (it == inflight_.end())
            return; // already resolved (duplicate label, same spec)
        fl = it->second;
        inflight_.erase(it);
    }
    {
        std::lock_guard<std::mutex> lock(fl->m);
        fl->done = true;
        if (result != nullptr) {
            fl->result = *result;
        } else {
            fl->failed = true;
            fl->error = error;
        }
    }
    fl->cv.notify_all();
}

SubmitStats
SweepService::run(const GridFile &grid, const PointSink &sink,
                  std::string *grid_hash_out)
{
    if (grid.points.empty())
        throwUsage("submitted grid '", grid.name, "' has no points");

    // Same fingerprint a local `--spec` run computes before sharding:
    // the client stamps it into its results document, which is what
    // lets `submit` round-trip byte-identically with a direct run.
    const std::string grid_hash =
        gridFingerprint(json::write(gridToJson(grid.name, grid.points)));
    if (grid_hash_out != nullptr)
        *grid_hash_out = grid_hash;

    // Validate everything before claiming anything: a bad point must
    // fail the submission without poisoning the in-flight table.
    for (const GridPoint &point : grid.points) {
        const std::string err = point.spec.validationError();
        if (!err.empty())
            throwUsage("point '", point.label, "': ", err);
    }

    const std::size_t n = grid.points.size();
    std::vector<std::string> fps;
    fps.reserve(n);
    for (const GridPoint &point : grid.points)
        fps.push_back(specFingerprint(point.spec));

    // Claim phase: one pass under one lock partitions the points into
    // owned (we compute), waited (a peer is computing) and duplicate
    // (an earlier point of this submission has the same fingerprint).
    std::vector<std::size_t> owned;
    std::vector<std::ptrdiff_t> dup_of(n, -1);
    std::vector<std::pair<std::size_t, std::shared_ptr<Inflight>>>
        waits;
    {
        std::unordered_map<std::string, std::size_t> mine;
        std::lock_guard<std::mutex> lock(mapMutex_);
        for (std::size_t i = 0; i < n; ++i) {
            const auto m = mine.find(fps[i]);
            if (m != mine.end()) {
                dup_of[i] = static_cast<std::ptrdiff_t>(m->second);
                continue;
            }
            const auto it = inflight_.find(fps[i]);
            if (it != inflight_.end()) {
                waits.emplace_back(i, it->second);
                continue;
            }
            inflight_.emplace(fps[i], std::make_shared<Inflight>());
            mine.emplace(fps[i], i);
            owned.push_back(i);
        }
    }

    SubmitStats stats;
    stats.points = n;

    const auto emit = [&](std::size_t i, const SimResult &result,
                          const char *source) {
        ResultPoint point;
        point.index = grid.points[i].index;
        point.label = grid.points[i].label;
        point.spec = grid.points[i].spec;
        point.result = result;
        if (sink)
            sink(point, source);
    };

    // Owned points run as ONE runExperiments call: store hits resolve
    // in its replay pre-pass (streamed first, before any simulation),
    // the rest simulate with work stealing and warm-checkpoint
    // grouping intact. The store hook serves the hits, publishes fresh
    // results and warm snapshots -- recordResult() runs *before*
    // on_done, so by the time a waiter or a later submission sees the
    // point resolved, the object is already on disk.
    std::vector<SimResult> own_results;
    std::vector<std::ptrdiff_t> own_pos(n, -1);
    if (!owned.empty()) {
        std::vector<ExperimentSpec> specs;
        specs.reserve(owned.size());
        for (std::size_t j = 0; j < owned.size(); ++j) {
            specs.push_back(grid.points[owned[j]].spec);
            own_pos[owned[j]] = static_cast<std::ptrdiff_t>(j);
        }
        StoreCacheHook hook(store_, specs);
        const ExperimentCallback on_done =
            [&](std::size_t j, const SimResult &result) {
                const std::size_t i = owned[j];
                publish(fps[i], &result, "");
                const bool from_store = hook.wasHit(j);
                if (from_store)
                    ++stats.storeHits;
                else
                    ++stats.simulated;
                emit(i, result, from_store ? "store" : "simulated");
            };
        try {
            own_results =
                runExperiments(specs, threads_, on_done, &hook);
        } catch (const std::exception &e) {
            // Release every claim this submission still holds so a
            // waiting peer fails fast instead of blocking forever.
            for (const std::size_t i : owned)
                publish(fps[i], nullptr, e.what());
            throw;
        }
    }

    // Points a concurrent submission owns: block until each resolves.
    // The results stream later than the owner's clients see them, but
    // never later than the submission's `done` -- and no simulation
    // was duplicated to produce them.
    for (const auto &[i, fl] : waits) {
        std::unique_lock<std::mutex> lock(fl->m);
        fl->cv.wait(lock, [&] { return fl->done; });
        if (fl->failed)
            throwIo("point '", grid.points[i].label,
                    "': peer computation failed: ", fl->error);
        ++stats.peerHits;
        emit(i, fl->result, "peer");
    }

    // Within-submission duplicates (same spec under two labels): copy
    // the sibling's result.
    for (std::size_t i = 0; i < n; ++i) {
        if (dup_of[i] < 0)
            continue;
        const std::size_t first = static_cast<std::size_t>(dup_of[i]);
        const std::ptrdiff_t j = own_pos[first];
        SimResult result;
        if (j >= 0) {
            result = own_results[static_cast<std::size_t>(j)];
        } else {
            // The sibling was itself waited on; its Inflight is gone,
            // but its object is in the store by the publish ordering.
            if (!store_.lookupFp(fps[i], result))
                throwIo("point '", grid.points[i].label,
                        "': duplicate of a peer-served point but "
                        "absent from the store");
        }
        ++stats.peerHits;
        emit(i, result, "dup");
    }

    return stats;
}

} // namespace serve
} // namespace unison

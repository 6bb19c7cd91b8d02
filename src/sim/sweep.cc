#include "sim/sweep.hh"

#include <algorithm>
#include <unordered_set>

#include "common/argparse.hh"
#include "common/logging.hh"

namespace unison {

SweepGrid &
SweepGrid::over(const std::string &axis, std::vector<AxisValue> values)
{
    if (values.empty())
        fatal("sweep axis '", axis, "' has no values");
    axes_.emplace_back(axis, std::move(values));
    return *this;
}

SweepGrid &
SweepGrid::overDesigns(const std::vector<DesignKind> &designs)
{
    std::vector<DesignConfig> configs;
    configs.reserve(designs.size());
    for (DesignKind kind : designs)
        configs.emplace_back(kind);
    return overDesignConfigs(configs);
}

SweepGrid &
SweepGrid::overDesignConfigs(const std::vector<DesignConfig> &configs)
{
    std::vector<AxisValue> axis;
    axis.reserve(configs.size());
    for (const DesignConfig &config : configs) {
        axis.push_back({designId(config.kind()),
                        [config](ExperimentSpec &spec) {
                            spec.design = config;
                        }});
    }
    return over("design", std::move(axis));
}

SweepGrid &
SweepGrid::overWorkloads(const std::vector<Workload> &workloads)
{
    std::vector<AxisValue> axis;
    axis.reserve(workloads.size());
    for (Workload w : workloads) {
        axis.push_back({normalizedNameKey(workloadName(w)),
                        [w](ExperimentSpec &spec) {
                            spec.workload = w;
                        }});
    }
    return over("workload", std::move(axis));
}

SweepGrid &
SweepGrid::overCapacities(const std::vector<std::uint64_t> &sizes)
{
    std::vector<AxisValue> axis;
    axis.reserve(sizes.size());
    for (std::uint64_t bytes : sizes) {
        axis.push_back({formatSize(bytes),
                        [bytes](ExperimentSpec &spec) {
                            spec.capacityBytes = bytes;
                        }});
    }
    return over("capacity", std::move(axis));
}

template <typename T>
SweepGrid &
SweepGrid::overKnob(const std::string &name, const std::vector<T> &values,
                    const std::vector<std::string> &labels,
                    std::function<void(ExperimentSpec &, const T &)> apply)
{
    if (labels.size() != values.size())
        fatal("sweep axis '", name, "': ", values.size(),
              " values but ", labels.size(), " labels");
    std::vector<AxisValue> axis;
    axis.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        const T value = values[i];
        axis.push_back({labels[i],
                        [apply, value](ExperimentSpec &spec) {
                            apply(spec, value);
                        }});
    }
    return over(name, std::move(axis));
}

// The label overload is used with this value type today; others go
// through the std::to_string overload in the header.
template SweepGrid &SweepGrid::overKnob<std::uint32_t>(
    const std::string &, const std::vector<std::uint32_t> &,
    const std::vector<std::string> &,
    std::function<void(ExperimentSpec &, const std::uint32_t &)>);

std::size_t
SweepGrid::size() const
{
    std::size_t n = 1;
    for (const auto &[name, values] : axes_)
        n *= values.size();
    return n;
}

std::vector<GridPoint>
SweepGrid::points() const
{
    std::vector<GridPoint> out;
    out.reserve(size());

    std::vector<std::size_t> coords(axes_.size(), 0);
    while (true) {
        GridPoint point;
        point.index = out.size();
        point.coords = coords;
        point.spec = base_;
        for (std::size_t a = 0; a < axes_.size(); ++a) {
            const AxisValue &value = axes_[a].second[coords[a]];
            value.apply(point.spec);
            if (a > 0)
                point.label += '/';
            point.label += value.label;
        }
        out.push_back(std::move(point));

        // Odometer increment, last axis fastest.
        std::size_t a = axes_.size();
        while (a > 0) {
            --a;
            if (++coords[a] < axes_[a].second.size())
                break;
            coords[a] = 0;
            if (a == 0)
                return out;
        }
        if (axes_.empty())
            return out;
    }
}

std::vector<GridPoint>
shardPoints(const std::vector<GridPoint> &points, std::size_t shard,
            std::size_t shards)
{
    if (shards == 0 || shard >= shards)
        fatal("bad shard ", shard, "/", shards,
              " (need 0 <= i < n)");
    std::vector<GridPoint> out;
    out.reserve(points.size() / shards + 1);
    for (std::size_t i = shard; i < points.size(); i += shards)
        out.push_back(points[i]);
    return out;
}

std::vector<GridPoint>
concatGrids(const std::vector<std::vector<GridPoint>> &segments)
{
    std::vector<GridPoint> out;
    std::unordered_set<std::string> seen;
    for (const std::vector<GridPoint> &segment : segments) {
        for (const GridPoint &point : segment) {
            if (!seen.insert(point.label).second)
                fatal("concatenated grids repeat the point label '",
                      point.label, "'");
            out.push_back(point);
            out.back().index = out.size() - 1;
        }
    }
    return out;
}

} // namespace unison

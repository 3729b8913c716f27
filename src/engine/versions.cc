#include "engine/versions.hh"

#include "engine/streaming.hh"

namespace qgpu
{

const char *
versionName(Version v)
{
    switch (v) {
      case Version::Baseline: return "Baseline";
      case Version::Naive: return "Naive";
      case Version::Overlap: return "Overlap";
      case Version::Pruning: return "Pruning";
      case Version::Reorder: return "Reorder";
      case Version::QGpu: return "Q-GPU";
    }
    return "?";
}

const std::vector<Version> &
allVersions()
{
    static const std::vector<Version> versions = {
        Version::Baseline, Version::Naive,   Version::Overlap,
        Version::Pruning,  Version::Reorder, Version::QGpu,
    };
    return versions;
}

std::unique_ptr<ExecutionEngine>
makeVersion(Version version, Machine &machine, ExecOptions base)
{
    ExecOptions o = base;
    if (version == Version::Baseline) {
        // Keeps the caller's flags: the host-static placement ignores
        // them, while runBatched's shared plan still reads them.
        return std::make_unique<StreamingEngine>(
            machine, o, versionName(version), Allocation::HostStatic);
    }
    // The recipe is cumulative: each version in paper order adds one
    // optimization to the one before it.
    o.overlap = version >= Version::Overlap;
    o.prune = version >= Version::Pruning;
    o.reorder = version >= Version::Reorder ? ReorderKind::ForwardLooking
                                            : ReorderKind::None;
    o.compress = version >= Version::QGpu;
    return std::make_unique<StreamingEngine>(machine, o,
                                             versionName(version));
}

} // namespace qgpu

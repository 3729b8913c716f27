/**
 * @file
 * The host-static placement of the Baseline, paper §III-B (see
 * engine/streaming.hh).
 */

#include <algorithm>
#include <vector>

#include "engine/streaming.hh"
#include "sched/shard.hh"

namespace qgpu
{

namespace
{

using Link = RunContext::Link;

class HostStatic final : public Placement
{
  public:
    // Static allocation (sched/shard.hh): device d owns a contiguous
    // range bounded by its memory; the remainder stays host-resident.
    // No device map is set for eviction: capacity-limited maps leave
    // overflow chunks on the host (kHost), so the balanced-share
    // heuristic would be meaningless here.
    explicit HostStatic(RunContext &ctx)
        : ctx_(ctx), numDevs_(ctx.machine.numDevices()),
          // Lane-aware chunk size: halved under Precision::f32, the
          // wide (f64) size under adaptive - the baseline prices its
          // uniform static allocation at the capacity-planning width.
          chunkBytes_(ctx.state.chunkBytes()),
          shard_(ShardMap::capacityLimited(ctx.state.numChunks(),
                                           capacities(ctx))),
          devGroups_(numDevs_), mixedGroups_(numDevs_),
          mixedHostBytes_(numDevs_),
          mixedPeerBytes_(static_cast<std::size_t>(numDevs_) * numDevs_)
    {
        const Index num_chunks = ctx.state.numChunks();
        ctx.stats.set("chunks.total", static_cast<double>(num_chunks));
        ctx.stats.set("chunks.on_device",
                      static_cast<double>(num_chunks -
                                          shard_.hostChunks()));
        ctx.stats.set("chunks.on_host",
                      static_cast<double>(shard_.hostChunks()));
        // Initial load of the static device region.
        for (int d = 0; d < numDevs_; ++d) {
            if (shard_.ownedCount(d) > 0) {
                prevEnd_ = std::max(
                    prevEnd_, ctx.transfer(Link::H2D, d,
                                           regionBytes(d), 0.0, -1));
            }
        }
    }

    void gate(const GateWork &work) override;

    void
    finish(std::size_t num_gates) override
    {
        // Drain the device-resident region back to the host.
        for (int d = 0; d < numDevs_; ++d) {
            if (shard_.ownedCount(d) > 0) {
                ctx_.transfer(Link::D2H, d, regionBytes(d),
                              prevEnd_,
                              static_cast<std::int64_t>(num_gates));
            }
        }
        // Account the serialized gate chain: the host compute resource
        // may show idle gaps, but prevEnd_ is the true makespan. Pin it
        // by scheduling a zero-length marker.
        ctx_.machine.host().compute().schedule(prevEnd_, 0.0);
    }

    VTime frontier() const override { return prevEnd_; }

  private:
    static std::vector<Index>
    capacities(const RunContext &ctx)
    {
        std::vector<Index> caps(ctx.machine.numDevices());
        for (int d = 0; d < ctx.machine.numDevices(); ++d) {
            caps[d] = ctx.machine.device(d).spec().memBytes /
                      ctx.state.chunkBytes();
        }
        return caps;
    }

    double
    regionBytes(int d) const
    {
        return static_cast<double>(shard_.ownedCount(d) * chunkBytes_);
    }

    RunContext &ctx_;
    const int numDevs_;
    const std::uint64_t chunkBytes_;
    const ShardMap shard_;
    /** End of the previous gate's barrier. */
    VTime prevEnd_ = 0.0;
    std::vector<double> devGroups_;
    /** Mixed groups per target device: count, foreign bytes from the
     *  host, and foreign bytes from each other device. */
    std::vector<double> mixedGroups_;
    std::vector<double> mixedHostBytes_;
    std::vector<double> mixedPeerBytes_;
    std::vector<Index> members_;
};

void
HostStatic::gate(const GateWork &work)
{
    const auto &plan = work.plan;
    const auto gate_tag = static_cast<std::int64_t>(work.index);
    const Index span = plan.chunksPerGroup();
    const double group_bytes =
        static_cast<double>(span * ctx_.state.chunkSize()) *
        ctx_.perAmpBytes;
    const auto peer_bytes = [&](int dst, int src) -> double & {
        return mixedPeerBytes_[static_cast<std::size_t>(dst) * numDevs_ +
                               src];
    };

    // Partition groups by where their chunks live.
    double host_groups = 0.0;
    std::fill(devGroups_.begin(), devGroups_.end(), 0.0);
    std::fill(mixedGroups_.begin(), mixedGroups_.end(), 0.0);
    std::fill(mixedHostBytes_.begin(), mixedHostBytes_.end(), 0.0);
    std::fill(mixedPeerBytes_.begin(), mixedPeerBytes_.end(), 0.0);
    for (Index g : work.live) {
        plan.membersInto(g, members_);
        bool any_host = false;
        int first_dev = -1;
        bool multi_dev = false;
        for (Index c : members_) {
            const int loc = shard_.device(c);
            if (loc == ShardMap::kHost)
                any_host = true;
            else if (first_dev < 0)
                first_dev = loc;
            else if (loc != first_dev)
                multi_dev = true;
        }
        if (first_dev < 0) {
            host_groups += 1.0;
        } else if (!any_host && !multi_dev) {
            devGroups_[first_dev] += 1.0;
        } else {
            // Reactive exchange: foreign chunks go to first_dev -
            // host-resident ones over its host link, device-resident
            // ones over the peer links.
            mixedGroups_[first_dev] += 1.0;
            for (Index c : members_) {
                const int loc = shard_.device(c);
                if (loc == ShardMap::kHost) {
                    mixedHostBytes_[first_dev] +=
                        static_cast<double>(chunkBytes_);
                } else if (loc != first_dev) {
                    peer_bytes(first_dev, loc) +=
                        static_cast<double>(chunkBytes_);
                }
            }
        }
    }
    if (std::any_of(mixedPeerBytes_.begin(), mixedPeerBytes_.end(),
                    [](double b) { return b > 0.0; }))
        ctx_.stats.add(statkeys::exchangePhases, 1.0);

    // QISKit-Aer's chunk loop walks the host-resident region with the
    // CPU threads and only then services the device region and its
    // reactive exchanges, so host and device work serialize within a
    // gate (which is why the paper's Fig. 2 breakdown sums to 100%).
    // Devices run concurrently with each other.
    const VTime host_end =
        host_groups > 0 ? ctx_.hostUpdate(host_groups * work.groupFlops,
                                          host_groups * group_bytes,
                                          prevEnd_)
                        : prevEnd_;
    VTime gate_end = host_end;
    for (int d = 0; d < numDevs_; ++d) {
        VTime t = host_end;
        if (devGroups_[d] > 0) {
            t = ctx_.kernel(d, devGroups_[d] * work.groupFlops,
                            devGroups_[d] * group_bytes, t);
        }
        if (mixedGroups_[d] > 0) {
            // Reactive: copy in, compute, copy back, in order.
            // Host-resident foreign chunks cross the host link;
            // device-resident ones cross the peer links, each
            // serialized on the sender's egress port.
            const auto peer_legs = [&](VTime start, bool home,
                                       VTime done) {
                for (int src = 0; src < numDevs_; ++src) {
                    const double pb = peer_bytes(d, src);
                    if (pb <= 0.0)
                        continue;
                    done = std::max(
                        done, home ? ctx_.transfer(Link::Peer, d, pb,
                                                   start, gate_tag, src)
                                   : ctx_.transfer(Link::Peer, src, pb,
                                                   start, gate_tag, d));
                    ctx_.stats.add(statkeys::exchangeChunks,
                                   pb / static_cast<double>(chunkBytes_));
                }
                return done;
            };
            const bool host_leg = mixedHostBytes_[d] > 0;
            const VTime in_done = peer_legs(
                t, false,
                host_leg ? ctx_.transfer(Link::H2D, d, mixedHostBytes_[d],
                                         t, gate_tag)
                         : t);
            const VTime k_done =
                ctx_.kernel(d, mixedGroups_[d] * work.groupFlops,
                            mixedGroups_[d] * group_bytes, in_done);
            // Return trip: the foreign chunks go home, the peer ones
            // over this device's own egress port.
            t = peer_legs(k_done, true,
                          host_leg ? ctx_.transfer(Link::D2H, d,
                                                   mixedHostBytes_[d],
                                                   k_done, gate_tag)
                                   : k_done);
        }
        gate_end = std::max(gate_end, t);
    }

    // Per-gate synchronization barrier.
    ctx_.stats.add(statkeys::sync, kSyncLatency);
    prevEnd_ = gate_end + kSyncLatency;
}

} // namespace

std::unique_ptr<Placement>
makeHostStatic(RunContext &ctx)
{
    return std::make_unique<HostStatic>(ctx);
}

} // namespace qgpu

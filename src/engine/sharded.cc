/**
 * @file
 * The sharded-resident placement (see engine/streaming.hh).
 */

#include <algorithm>
#include <vector>

#include "engine/streaming.hh"
#include "sched/shard.hh"

namespace qgpu
{

namespace
{

class Sharded final : public Placement
{
  public:
    // The shard map is fixed for the run: chunk geometry stays at the
    // base size (a rechunk would re-shard the whole state, costing the
    // very all-to-all the top-bit split avoids), and exchanges ship
    // raw chunks - at NVLink-class peer bandwidth the codec is a loss.
    explicit Sharded(RunContext &ctx)
        : ctx_(ctx), numDevs_(ctx.machine.numDevices()),
          shard_(ctx.state.numChunks(), numDevs_),
          devT_(numDevs_, 0.0), devGroups_(numDevs_, 0.0)
    {
        // Shard-balanced eviction: the residency layer prefers victims
        // from devices holding at least their balanced share.
        ctx.state.setDeviceMap(shard_.deviceTable());
        // One integrity ledger per device: chunks are checksummed
        // against the ledger of the device they leave, so a detected
        // mismatch names the faulty sender.
        for (int d = 0; d < numDevs_; ++d)
            ledgers_.push_back(ctx.makeLedger());
        // Every device loads its shard over its own host link, all
        // links concurrent but DRAM-contended.
        for (int d = 0; d < numDevs_; ++d) {
            if (shard_.ownedCount(d) > 0) {
                devT_[d] = ctx.transfer(RunContext::Link::H2D, d,
                                        shardBytes(d), 0.0, -1);
            }
        }
    }

    void
    beginSweep(const Sweep &sw) override
    {
        // All cross-chunk gates of the sweep couple the same bits, so
        // the whole sweep pays at most one gather and one scatter.
        xplan_ = shard_.exchangePlan(
            sw.globalBits, [this](Index c) { return ctx_.live(c); });
        if (!xplan_.empty())
            ctx_.stats.add(statkeys::exchangePhases, 1.0);
        // During the sweep a chunk resides on the owner of its sweep
        // group (its home unless it was just gathered): the owner of
        // the member with every sweep-coupled bit cleared.
        sweepMask_ = 0;
        for (int b : sw.globalBits)
            sweepMask_ |= Index{1} << b;
        // The previous sweep rewrote chunk data: new ledger epoch,
        // then ship/verify the gathers against pre-sweep data.
        exchange(xplan_.gather, static_cast<std::int64_t>(sw.begin));
    }

    void
    gate(const GateWork &work) override
    {
        const auto &plan = work.plan;
        const double span = plan.chunksPerGroup();
        // Each device sweeps the live groups it owns, concurrently.
        std::fill(devGroups_.begin(), devGroups_.end(), 0.0);
        for (Index g : work.live) {
            plan.membersInto(g, members_);
            devGroups_[shard_.device(members_.front() & ~sweepMask_)] +=
                1.0;
        }
        for (int d = 0; d < numDevs_; ++d) {
            if (devGroups_[d] <= 0.0)
                continue;
            const double kbytes =
                devGroups_[d] * span *
                static_cast<double>(ctx_.state.chunkSize()) *
                ctx_.perAmpBytes;
            devT_[d] = ctx_.kernel(d, devGroups_[d] * work.groupFlops,
                                   kbytes, devT_[d]);
        }
    }

    void
    endSweep(const Sweep &sw) override
    {
        // Scatter ships the post-sweep payloads under a fresh epoch.
        exchange(xplan_.scatter, static_cast<std::int64_t>(sw.end) - 1);
    }

    void
    finish(std::size_t num_gates) override
    {
        // Every device ships its shard home concurrently.
        const auto gate_tag = static_cast<std::int64_t>(num_gates);
        for (int d = 0; d < numDevs_; ++d) {
            if (shard_.ownedCount(d) > 0) {
                ctx_.transfer(RunContext::Link::D2H, d, shardBytes(d),
                              devT_[d], gate_tag);
            }
        }
    }

    VTime
    frontier() const override
    {
        return *std::max_element(devT_.begin(), devT_.end());
    }

  private:
    /** Stored bytes of device @p d's shard under current lanes. */
    double
    shardBytes(int d) const
    {
        std::uint64_t bytes = 0;
        for (Index c = 0; c < ctx_.state.numChunks(); ++c) {
            if (shard_.device(c) == d)
                bytes += ctx_.state.chunkStoredBytes(c);
        }
        return static_cast<double>(bytes);
    }

    /**
     * One exchange direction under a fresh ledger epoch: aggregate the
     * transfers per (src, dst) pair into one peer-link message each,
     * serialized on the source's egress port; every destination then
     * waits for its arrivals.
     */
    void
    exchange(const std::vector<PeerTransfer> &transfers,
             std::int64_t gate_tag)
    {
        for (auto &ledger : ledgers_)
            ledger.beginEpoch();
        if (transfers.empty())
            return;
        std::vector<double> pair_bytes(
            static_cast<std::size_t>(numDevs_) * numDevs_, 0.0);
        for (const PeerTransfer &t : transfers) {
            pair_bytes[static_cast<std::size_t>(t.src) * numDevs_ +
                       t.dst] +=
                static_cast<double>(ctx_.state.chunkStoredBytes(t.chunk));
            // Ship-time checksum/sidecar against the sender's ledger
            // (idempotent within the epoch).
            ctx_.ship(ledgers_[t.src], t.chunk, gate_tag);
        }
        std::vector<VTime> arrive(numDevs_, 0.0);
        for (int s = 0; s < numDevs_; ++s) {
            for (int d = 0; d < numDevs_; ++d) {
                const double bytes =
                    pair_bytes[static_cast<std::size_t>(s) * numDevs_ +
                               d];
                if (bytes > 0.0) {
                    arrive[d] = std::max(
                        arrive[d],
                        ctx_.transfer(RunContext::Link::Peer, s, bytes,
                                      devT_[s], gate_tag, d));
                }
            }
        }
        for (int d = 0; d < numDevs_; ++d)
            devT_[d] = std::max(devT_[d], arrive[d]);
        ctx_.stats.add(statkeys::exchangeChunks,
                       static_cast<double>(transfers.size()));
        // Receive-time verification at the destination, against the
        // sender's ledger.
        for (const PeerTransfer &t : transfers)
            ctx_.receive(ledgers_[t.src], t.chunk, gate_tag);
    }

    RunContext &ctx_;
    const int numDevs_;
    const ShardMap shard_;
    std::vector<ChunkIntegrity> ledgers_;
    /** Tail of each device's schedule; kernels and outgoing
     *  transfers chain from here. */
    std::vector<VTime> devT_;
    std::vector<double> devGroups_;
    ExchangePlan xplan_;
    std::uint64_t sweepMask_ = 0;
    std::vector<Index> members_;
};

} // namespace

std::unique_ptr<Placement>
makeSharded(RunContext &ctx)
{
    return std::make_unique<Sharded>(ctx);
}

} // namespace qgpu

/**
 * @file
 * The engine behind all six paper versions: one sweep-driven driver
 * over a placement policy. With every feature flag off it is the
 * paper's Naive version (§III-D): every chunk makes a synchronous round
 * trip through the GPU for every gate. The Q-GPU optimizations stack
 * on top through ExecOptions:
 *
 *  - overlap:  double-buffered, bidirectional proactive transfer
 *              (§IV-A);
 *  - prune:    zero-amplitude chunk pruning with dynamic chunk size
 *              (§IV-B, Algorithm 1);
 *  - reorder:  dependency-aware gate reordering (§IV-C);
 *  - compress: GFC compression of non-zero chunks (§IV-D).
 *
 * The driver does everything the versions share: the reorder/fuse
 * passes, the fault injector, the chunked state and its precision, the
 * sweep cursor (nextSweep -> applySweepChunked -> refreshPrecision),
 * the per-gate live-group count with its chunks.* / gates.applied stats
 * and prune marker, the involvement mask, and the final stats. A
 * Placement decides where chunks live and prices their movement in
 * virtual time; every transfer, kernel and codec pass goes through
 * RunContext, which does the guarded retry, the schedule, the byte
 * stat and the trace span. There are three placements:
 *
 *  - sharded (sharded.cc), when every device can hold its balanced
 *    shard (sched/shard.hh; one device holding the whole state is the
 *    one-shard case): shards stay resident, every device computes the
 *    groups it owns concurrently, and sweeps whose coupled chunk-index
 *    bits cross a shard boundary pay one batched gather/scatter over
 *    the peer links;
 *  - streamed (streaming.cc) otherwise: live groups round-trip through
 *    device buffers in batches, round-robin over the GPUs (§V-E,
 *    Fig. 18), with double buffering, the codec ratio model, dynamic
 *    rechunking and the integrity ledger;
 *  - host-static (baseline.cc), Allocation::HostStatic: the
 *    QISKit-Aer-style Baseline (§III-B). The first chunks that fit
 *    stay on the GPUs, the rest on the CPU, with reactive synchronous
 *    exchange whenever a group mixes the two and a per-gate barrier.
 *    It ignores the prune, reorder, fuse and compress flags.
 *
 * Callers build engines through engine/versions.hh; the driver types
 * below are shared only by the engine's own sources.
 */

#ifndef QGPU_ENGINE_STREAMING_HH
#define QGPU_ENGINE_STREAMING_HH

#include <memory>
#include <vector>

#include "compress/gfc.hh"
#include "engine/execution.hh"
#include "fault/integrity.hh"
#include "sched/sweep.hh"
#include "statevec/apply.hh"

namespace qgpu
{

/** Host/device synchronization latency paid by every per-gate
 *  barrier (Naive and Baseline), in seconds. */
inline constexpr VTime kSyncLatency = 20e-6;

/** What a run shares with its placement. */
struct RunContext
{
    enum class Link
    {
        H2D,
        D2H,
        Peer,
    };

    Machine &machine;
    const ExecOptions &options;
    StatSet &stats;
    Trace &trace;
    FaultInjector &injector;
    ChunkedStateVector &state;
    const InvolvementMask &mask;
    /** Ratio-model codec: the streamed size model and the ledgers'
     *  compressed sidecars. */
    const GfcCodec &gfc;
    bool prune;
    /** Current chunk geometry (the streamed placement rechunks). */
    int chunkBits;
    /** Kernel memory traffic per amplitude: read + write of the
     *  storage lane. */
    double perAmpBytes;

    /** Can chunk @p c hold a nonzero amplitude? */
    bool
    live(Index c) const
    {
        return !prune || mask.chunkIsLive(c, chunkBits);
    }

    /**
     * Move @p bytes over @p link under the bounded-retry policy,
     * starting no earlier than @p start. Host links run on device
     * @p dev's copy engine; a peer transfer leaves @p dev's egress
     * port for device @p peer. Adds bytes.h2d / bytes.d2h per attempt
     * or exchange.bytes once. Each attempt is traced over the time it
     * occupies its engine.
     * @return completion time.
     */
    VTime transfer(Link link, int dev, double bytes, VTime start,
                   std::int64_t gate, int peer = -1);

    /** Kernel of @p flops over @p bytes of device memory on @p dev. */
    VTime kernel(int dev, double flops, double bytes, VTime start);

    /** GFC encode (@p encode) or decode of @p raw_bytes on @p dev. */
    VTime codec(int dev, bool encode, double raw_bytes, VTime start);

    /** Host-side update of @p flops over @p bytes. */
    VTime hostUpdate(double flops, double bytes, VTime start);

    /** An integrity ledger over the current chunk geometry. */
    ChunkIntegrity makeLedger() const;

    /**
     * Checksum chunk @p c as it leaves (ship) or verify it as it
     * arrives (receive) under @p ledger. The inline needs* reject
     * keeps the per-gate loops free of out-of-line calls: each chunk
     * is checked at most once per epoch.
     */
    void
    ship(ChunkIntegrity &ledger, Index c, std::int64_t gate)
    {
        if (ledger.needsShip(c)) {
            ledger.onShip(state.chunk(c), c, gate, injector, stats,
                          state.chunkIsF32(c));
        }
    }

    void
    receive(ChunkIntegrity &ledger, Index c, std::int64_t gate)
    {
        if (ledger.needsReceive(c)) {
            ledger.onReceive(state.chunk(c), c, gate, injector, stats,
                             state.chunkIsF32(c));
        }
    }
};

/** One gate as the driver hands it to the placement. */
struct GateWork
{
    const Gate &gate;
    std::size_t index;
    const GatePlan &plan;
    /** Flops of one group's kernel. */
    double groupFlops;
    /** Groups with at least one live member (every group unpruned). */
    const std::vector<Index> &live;
};

/** Where chunks live and what moving them costs. */
class Placement
{
  public:
    virtual ~Placement() = default;

    /** Before the sweep's functional update (and after any change
     *  of chunk geometry). */
    virtual void beginSweep(const Sweep &) {}

    /** Price one gate of the current sweep. */
    virtual void gate(const GateWork &work) = 0;

    /** After the sweep's last gate. */
    virtual void endSweep(const Sweep &) {}

    /** After the last sweep of a @p num_gates gate circuit. */
    virtual void finish(std::size_t /* num_gates */) {}

    /** Anchor of the zero-length prune-decision markers. */
    virtual VTime frontier() const = 0;
};

std::unique_ptr<Placement> makeStreamed(RunContext &ctx);
std::unique_ptr<Placement> makeSharded(RunContext &ctx);
std::unique_ptr<Placement> makeHostStatic(RunContext &ctx);

/** Chunk allocation policy of a StreamingEngine. */
enum class Allocation
{
    /** Streamed or sharded-resident, chosen per machine. */
    Dynamic,
    /** The Baseline's static device region plus host remainder. */
    HostStatic,
};

/**
 * Baseline / Naive / Overlap / Pruning / Reorder / Q-GPU engine,
 * selected by @p allocation and the feature flags in ExecOptions.
 */
class StreamingEngine : public ExecutionEngine
{
  public:
    /** @param label display name (the version's, from makeVersion). */
    StreamingEngine(Machine &machine, ExecOptions options,
                    std::string label,
                    Allocation allocation = Allocation::Dynamic);

    std::string name() const override { return label_; }

  protected:
    StateVector execute(const Circuit &circuit,
                        RunResult &result) override;

  private:
    std::string label_;
    Allocation allocation_;
    /**
     * Ratio-model codec: warp-32 lanes, one segment, sizes taken
     * payload-only over a batch-concatenated sample. The scaled-down
     * chunks here stand for the paper's multi-MB chunks, where GFC's
     * per-segment restarts and headers are noise; measuring tiny
     * chunks individually would bias the ratio toward 1 (see
     * DESIGN.md).
     */
    GfcCodec codec_{32, 1};
};

} // namespace qgpu

#endif // QGPU_ENGINE_STREAMING_HH

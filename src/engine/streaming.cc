#include "engine/streaming.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "qc/fusion.hh"
#include "statevec/kernels.hh"

namespace qgpu
{

namespace
{

struct LinkInfo
{
    FaultPoint point;
    const char *phase;
    const char *label;
    const char *suffix;
    /** Per-attempt byte stat; peer bytes count once as exchange. */
    const char *byteStat;
};

constexpr LinkInfo kLinks[] = {
    {FaultPoint::H2D, phases::h2d, "xfer", ".h2d", statkeys::bytesH2d},
    {FaultPoint::D2H, phases::d2h, "xfer", ".d2h", statkeys::bytesD2h},
    {FaultPoint::Peer, phases::peer, "xchg", ".peer", nullptr},
};

/** Schedule @p dur on @p r and trace the span it occupies. */
VTime
occupy(Trace &trace, TimedResource &r, VTime start, VTime dur,
       const char *phase, const char *label, const std::string &owner,
       const char *suffix)
{
    const VTime end = r.schedule(start, dur);
    if (trace.enabled())
        trace.record(phase, label, owner + suffix, end - dur, end);
    return end;
}

/** The state's storage.* counters (none under raw storage);
 *  ExecutionEngine::run mirrors them into the MetricsRegistry. */
void
exportStorageStats(const ChunkedStateVector &state, StatSet &stats)
{
    if (!state.boundedStorage())
        return;
    const StorageStats s = state.storageStats();
    const std::pair<const char *, std::uint64_t> rows[] = {
        {statkeys::storageCold, s.coldChunks},
        {statkeys::storageEvictions, s.evictions},
        {statkeys::storageHits, s.decompressHits},
        {statkeys::storageMisses, s.decompressMisses},
        {statkeys::storageZeroFills, s.zeroFills},
        {statkeys::storageResidentBytes, s.residentBytes},
        {statkeys::storageColdBytes, s.coldBytes},
        {statkeys::storageSpillBytes, s.spillBytes},
        {statkeys::storagePeakBytes, s.peakHostBytes},
        {statkeys::storageVerified, s.verified},
        {statkeys::storageRetries, s.retries},
        {statkeys::storageRawFallbacks, s.rawFallbacks},
        {statkeys::storageWorkingSet, s.workingSet},
    };
    for (const auto &[key, value] : rows)
        stats.set(key, static_cast<double>(value));
}

/** Can every device hold its balanced shard of the state? */
bool
shardsFit(Machine &m, int num_qubits, int chunk_bits)
{
    const Index num_chunks = Index{1} << (num_qubits - chunk_bits);
    const auto devs = static_cast<Index>(m.numDevices());
    const std::uint64_t shard_bytes =
        ((num_chunks + devs - 1) / devs) *
        ((Index{1} << chunk_bits) * ampBytes);
    for (int d = 0; d < m.numDevices(); ++d) {
        if (shard_bytes > m.device(d).spec().memBytes)
            return false;
    }
    return true;
}

/**
 * Out-of-core streaming: every gate ships its live groups through
 * device buffers in batches, round-robin over the devices.
 */
class Streamed final : public Placement
{
  public:
    explicit Streamed(RunContext &ctx)
        : ctx_(ctx), ledger_(ctx.makeLedger()),
          slots_(ctx.options.overlap ? 2 : 1),
          chunkReady_(ctx.state.numChunks(), 0.0),
          slotFree_(ctx.machine.numDevices() * slots_, 0.0),
          devBatches_(ctx.machine.numDevices(), 0)
    {
        resetCompSizes();
    }

    void
    beginSweep(const Sweep &) override
    {
        const Index num_chunks = ctx_.state.numChunks();
        if (num_chunks != chunkReady_.size()) {
            // The driver rechunked: every chunk of the new geometry is
            // ready once the last old one is, and recorded checksums
            // no longer describe any chunk.
            chunkReady_.assign(num_chunks,
                               *std::max_element(chunkReady_.begin(),
                                                 chunkReady_.end()));
            resetCompSizes();
            if (ledger_.active())
                ledger_.reset(num_chunks);
        }
        // The sweep rewrites chunk data: ship-time checksums from
        // before it are stale.
        ledger_.beginEpoch();
    }

    void gate(const GateWork &work) override;

    VTime frontier() const override { return frontier_; }

  private:
    double measureRatio(const std::vector<Index> &chunks,
                        std::size_t max_chunks);
    void resetCompSizes();

    RunContext &ctx_;
    ChunkIntegrity ledger_;
    const int slots_;
    /** Host-side availability of each chunk's latest value. */
    std::vector<VTime> chunkReady_;
    /** Compressed size of each chunk as currently held on the host. */
    std::vector<double> compSize_;
    double fallbackRatio_ = 1.0;
    /** Double-buffer slot availability, slots_ per device. */
    std::vector<VTime> slotFree_;
    std::vector<int> devBatches_;
    int batchRr_ = 0;
    /** Latest D2H completion; prune-decision markers anchor here. */
    VTime frontier_ = 0.0;
    std::vector<Index> members_;
    std::vector<Index> outChunks_;
    std::vector<Amp> scratch_;
    std::vector<Amp> scratch32_;
    std::vector<float> narrow_;
};

// Measure the GFC ratio over a run of chunks, concatenated so the
// lane structure spans chunk boundaries the way it spans a
// paper-scale chunk. Chunks are grouped by storage lane: f64-lane
// chunks price the classic stream, fp32-lane chunks price the narrow
// stream over their float components (what actually ships). Returns
// original/compressed, floored at 1 (the raw escape hatch:
// incompressible data ships as-is).
double
Streamed::measureRatio(const std::vector<Index> &chunks,
                       std::size_t max_chunks)
{
    const ChunkedStateVector &state = ctx_.state;
    scratch_.clear();
    scratch32_.clear();
    const std::size_t take = max_chunks == 0
                                 ? chunks.size()
                                 : std::min(chunks.size(), max_chunks);
    for (std::size_t i = 0; i < take; ++i) {
        const auto &data = state.chunk(chunks[i]);
        auto &dst = state.chunkIsF32(chunks[i]) ? scratch32_ : scratch_;
        dst.insert(dst.end(), data.begin(), data.end());
    }
    if (scratch_.empty() && scratch32_.empty())
        return 1.0;
    const double raw =
        static_cast<double>(scratch_.size()) * ampBytes +
        static_cast<double>(scratch32_.size()) *
            static_cast<double>(ampStoredBytes(true));
    double comp = 0.0;
    if (!scratch_.empty()) {
        comp += static_cast<double>(ctx_.gfc.compressedPayloadSize(
            reinterpret_cast<const double *>(scratch_.data()),
            2 * scratch_.size()));
    }
    if (!scratch32_.empty()) {
        narrow_.resize(2 * scratch32_.size());
        const double *raw_comp =
            reinterpret_cast<const double *>(scratch32_.data());
        for (std::size_t i = 0; i < narrow_.size(); ++i)
            narrow_[i] = static_cast<float>(raw_comp[i]);
        comp += static_cast<double>(ctx_.gfc.compressedPayloadSizeF32(
            narrow_.data(), narrow_.size()));
    }
    comp = std::max(1.0, comp);
    return std::max(1.0, raw / comp);
}

void
Streamed::resetCompSizes()
{
    if (!ctx_.options.compress)
        return;
    const ChunkedStateVector &state = ctx_.state;
    // Untouched chunks are all zero and compress maximally: GFC stores
    // one nibble and one zero byte per double.
    const double zero_size = std::max<double>(
        1.0, static_cast<double>(2 * state.chunkSize()) * 1.5);
    compSize_.assign(state.numChunks(), zero_size);
    compSize_[0] =
        static_cast<double>(state.chunkBytes()) / measureRatio({0}, 1);
    fallbackRatio_ = static_cast<double>(state.chunkBytes()) / zero_size;
}

void
Streamed::gate(const GateWork &work)
{
    Machine &m = ctx_.machine;
    const ExecOptions &o = ctx_.options;
    ChunkedStateVector &state = ctx_.state;
    const auto &plan = work.plan;
    const auto &live_groups = work.live;
    const auto gate_tag = static_cast<std::int64_t>(work.index);
    const int num_devs = m.numDevices();
    const int span = plan.chunksPerGroup();
    const std::uint64_t chunk_bytes = state.chunkBytes();
    const std::uint64_t post_mask_bits =
        ctx_.mask.bits() | gateInvolvementBits(work.gate, o.involvement);
    const auto live_out = [&](Index c) {
        const std::uint64_t shifted = c << ctx_.chunkBits;
        return !ctx_.prune || (shifted & post_mask_bits) == shifted;
    };

    // Batch the live groups under the buffer capacity.
    bool first_batch_of_gate = true;
    for (std::size_t at = 0; at < live_groups.size();) {
        const int d = batchRr_ % num_devs;
        ++batchRr_;
        // As many groups as one buffer slot holds, at least one.
        const std::size_t groups_per_batch = std::max<std::uint64_t>(
            1, m.device(d).spec().memBytes / slots_ /
                   (static_cast<std::uint64_t>(span) * chunk_bytes));
        const std::size_t end =
            std::min(live_groups.size(), at + groups_per_batch);

        // Gather batch facts.
        VTime ready = 0.0;
        double in_bytes = 0.0, in_decomp_raw = 0.0;
        outChunks_.clear();
        for (std::size_t i = at; i < end; ++i) {
            plan.membersInto(live_groups[i], members_);
            for (Index c : members_) {
                ready = std::max(ready, chunkReady_[c]);
                if (ctx_.live(c)) {
                    // H2D/decompress-time integrity check of the
                    // uploaded chunk (throws on an unrecoverable
                    // mismatch).
                    ctx_.receive(ledger_, c, gate_tag);
                    if (o.compress) {
                        in_bytes += compSize_[c];
                        // Chunks stored raw (escape hatch) skip the
                        // decompression kernel.
                        if (compSize_[c] <
                            0.98 * static_cast<double>(chunk_bytes)) {
                            in_decomp_raw +=
                                static_cast<double>(chunk_bytes);
                        }
                    } else {
                        in_bytes += static_cast<double>(
                            state.chunkStoredBytes(c));
                    }
                }
                if (live_out(c))
                    outChunks_.push_back(c);
            }
        }
        const double batch_groups = static_cast<double>(end - at);
        const double flops = batch_groups * work.groupFlops;
        const double kbytes = batch_groups * static_cast<double>(span) *
                              static_cast<double>(state.chunkSize()) *
                              ctx_.perAmpBytes;

        VTime &slot_free = slotFree_[d * slots_ + devBatches_[d] % slots_];
        ++devBatches_[d];

        VTime t = ctx_.transfer(RunContext::Link::H2D, d, in_bytes,
                                std::max(ready, slot_free),
                                gate_tag);
        if (o.compress && in_decomp_raw > 0)
            t = ctx_.codec(d, false, in_decomp_raw, t);
        t = ctx_.kernel(d, flops, kbytes, t);

        // Compress updated chunks and ship them back. (The functional
        // update already ran in the sweep pass; host memory stands in
        // for every location, and the placements differ only in
        // scheduling. The ratio sample below therefore reads the
        // post-sweep state - the same amplitudes the chunks hold when
        // they actually ship.)
        double out_bytes = 0.0;
        if (o.compress && !outChunks_.empty()) {
            const double out_raw =
                static_cast<double>(outChunks_.size()) *
                static_cast<double>(chunk_bytes);
            const std::size_t sample_chunks =
                o.codecSampleChunks <= 0
                    ? outChunks_.size()
                    : static_cast<std::size_t>(o.codecSampleChunks);
            // The ratio is re-measured on the first batch of each
            // gate; later batches of the same gate reuse it (the
            // state's character does not change mid-gate).
            double sampled_raw = 0.0;
            if (first_batch_of_gate) {
                fallbackRatio_ = measureRatio(outChunks_, sample_chunks);
                sampled_raw =
                    static_cast<double>(
                        std::min(outChunks_.size(), sample_chunks)) *
                    static_cast<double>(chunk_bytes);
                first_batch_of_gate = false;
            }
            // Adaptive bypass: with a double-buffered (depth-2)
            // pipeline the codec sits on the batch critical path, so
            // compression only pays once the transfer savings beat
            // the codec time - around ratio 1.2 for GFC at 75 GB/s
            // against PCIe. Below that, only the sample paid the
            // compression kernel and the batch ships raw (ratio 1);
            // above it the whole batch is compressed.
            const bool worthwhile = fallbackRatio_ >= 1.25;
            const double ratio = worthwhile ? fallbackRatio_ : 1.0;
            for (Index c : outChunks_)
                compSize_[c] = static_cast<double>(chunk_bytes) / ratio;
            out_bytes = out_raw / ratio;
            const double attempted = worthwhile ? out_raw : sampled_raw;
            if (attempted > 0)
                t = ctx_.codec(d, true, attempted, t);
            ctx_.stats.add(statkeys::compressIn, out_raw);
            ctx_.stats.add(statkeys::compressOut, out_bytes);
        } else {
            for (Index c : outChunks_)
                out_bytes +=
                    static_cast<double>(state.chunkStoredBytes(c));
        }

        // Compress/D2H-time integrity: checksum every tracked
        // outbound chunk (once per epoch) and refresh its compressed
        // sidecar when payload faults are armed.
        if (ledger_.active()) {
            for (Index c : outChunks_)
                ctx_.ship(ledger_, c, gate_tag);
        }

        const VTime d2h_done = ctx_.transfer(
            RunContext::Link::D2H, d, out_bytes, t, gate_tag);
        for (std::size_t i = at; i < end; ++i) {
            plan.membersInto(live_groups[i], members_);
            for (Index c : members_)
                chunkReady_[c] = d2h_done;
        }
        slot_free = d2h_done;
        frontier_ = std::max(frontier_, d2h_done);
        at = end;
    }

    if (!o.overlap) {
        // Naive: a device synchronization closes every gate.
        ctx_.stats.add(statkeys::sync, kSyncLatency);
        VTime barrier = 0.0;
        for (int d = 0; d < num_devs; ++d)
            barrier = std::max(barrier, m.device(d).d2hEngine().freeAt());
        barrier += kSyncLatency;
        for (VTime &t : slotFree_)
            t = std::max(t, barrier);
    }
}

} // namespace

VTime
RunContext::transfer(Link link, int dev, double bytes, VTime start,
                     std::int64_t gate, int peer)
{
    const LinkInfo &info = kLinks[static_cast<int>(link)];
    DeviceModel &d = machine.device(dev);
    TimedResource &engine = link == Link::H2D   ? d.h2dEngine()
                            : link == Link::D2H ? d.d2hEngine()
                                                : d.peerEngine();
    const LinkModel model =
        link == Link::Peer
            ? machine.peerLink(dev, peer)
            : machine.contendedHostLink(link == Link::H2D ? d.spec().h2d
                                                          : d.spec().d2h);
    const VTime dur =
        model.transferTime(static_cast<std::uint64_t>(bytes));
    const VTime done = guardedTransfer(
        &injector, info.point, options.transferRetries, gate, stats,
        start, [&](VTime s) {
            if (info.byteStat != nullptr)
                stats.add(info.byteStat, bytes);
            return occupy(trace, engine, s, dur, info.phase, info.label,
                          d.spec().name, info.suffix);
        });
    if (info.byteStat == nullptr)
        stats.add(statkeys::exchangeBytes, bytes);
    return done;
}

VTime
RunContext::kernel(int dev, double flops, double bytes, VTime start)
{
    DeviceModel &d = machine.device(dev);
    stats.add(statkeys::flopsDevice, flops);
    stats.add(statkeys::deviceMemBytes, bytes);
    return occupy(trace, d.compute(), start, d.kernelTime(flops, bytes),
                  phases::compute, "kernel", d.spec().name, ".compute");
}

VTime
RunContext::codec(int dev, bool encode, double raw_bytes, VTime start)
{
    DeviceModel &d = machine.device(dev);
    const VTime dur = d.codecTime(static_cast<std::uint64_t>(raw_bytes));
    stats.add(encode ? statkeys::compressTime : statkeys::decompressTime,
              dur);
    return occupy(trace, d.compute(), start, dur, phases::compress,
                  encode ? "cmp" : "dec", d.spec().name, ".compute");
}

VTime
RunContext::hostUpdate(double flops, double bytes, VTime start)
{
    HostModel &host = machine.host();
    stats.add(statkeys::flopsHost, flops);
    return occupy(trace, host.compute(), start,
                  host.updateTime(flops, bytes, options.hostThreads),
                  phases::hostCompute, "update", "host", ".compute");
}

ChunkIntegrity
RunContext::makeLedger() const
{
    // The compressed sidecar - a real GFC roundtrip per shipped chunk
    // - is only armed when payload faults are, so a fault-free
    // --verify-chunks run pays for checksums alone.
    const bool payload_faults = injector.enabled(FaultPoint::Codec) ||
                                injector.enabled(FaultPoint::Alloc);
    ChunkIntegrity ledger(options.verifyChunks,
                          payload_faults ? &gfc : nullptr,
                          options.verifySampleChunks);
    if (ledger.active())
        ledger.reset(state.numChunks());
    return ledger;
}

std::unique_ptr<Placement>
makeStreamed(RunContext &ctx)
{
    return std::make_unique<Streamed>(ctx);
}

StreamingEngine::StreamingEngine(Machine &machine, ExecOptions options,
                                 std::string label,
                                 Allocation allocation)
    : ExecutionEngine(machine, std::move(options)),
      label_(std::move(label)),
      allocation_(allocation)
{
}

StateVector
StreamingEngine::execute(const Circuit &circuit, RunResult &result)
{
    const ExecOptions &o = options();
    const bool host_static = allocation_ == Allocation::HostStatic;
    Circuit ordered = reorderCircuit(
        circuit, host_static ? ReorderKind::None : o.reorder);
    if (!host_static && o.fuseWidth > 0) {
        result.stats.set("gates.original",
                         static_cast<double>(ordered.numGates()));
        ordered = fuseGates(ordered, o.fuseWidth);
        result.stats.set("gates.fused",
                         static_cast<double>(ordered.numGates()));
    }

    const int n = ordered.numQubits();
    const int base_bits = baseChunkBits(n);
    const bool prune = !host_static && o.prune;
    const bool sharded =
        !host_static && shardsFit(machine(), n, base_bits);
    // Dynamic chunk-size selection (Algorithm 1 line 2) re-streams
    // the state at a new geometry, so only the streamed placement
    // uses it.
    const bool dynamic = prune && !sharded && o.dynamicChunks;
    const int min_bits = std::clamp(n - 14, 0, base_bits);
    InvolvementMask mask(n, o.involvement);

    RunState run(o, n,
                 dynamic ? mask.dynamicChunkBits(min_bits, base_bits)
                         : base_bits);
    ChunkedStateVector &state = run.state;
    RunContext ctx{machine(), o, result.stats, result.trace, run.injector,
                   state, mask, codec_, prune, state.chunkBits(),
                   2.0 * static_cast<double>(ampStoredBytes(
                             o.precision == Precision::f32))};
    const std::unique_ptr<Placement> placement =
        host_static ? makeHostStatic(ctx)
        : sharded   ? makeSharded(ctx)
                    : makeStreamed(ctx);

    // Functional updates run sweep-at-a-time: each sweep is applied
    // in one chunk-major pass, and the per-gate loop only prices the
    // placement's schedule. The involvement mask is constant within a
    // sweep (sched/sweep.hh rule 3), so the per-gate prune decisions
    // and the dynamic chunk size are exactly what gate-by-gate
    // execution would compute.
    const auto live_chunk = [&ctx](Index c) { return ctx.live(c); };
    const ZeroPredicate chunk_dead =
        prune ? ZeroPredicate([&ctx](Index c) { return !ctx.live(c); })
              : ZeroPredicate{};
    const std::span<const Gate> gates{ordered.gates()};
    std::vector<Index> live;
    std::vector<Index> members;
    std::size_t gi = 0;
    while (gi < gates.size()) {
        const int want = dynamic
                             ? mask.dynamicChunkBits(min_bits, base_bits)
                             : ctx.chunkBits;
        if (want != ctx.chunkBits) {
            state.rechunk(want);
            ctx.chunkBits = want;
        }
        const Sweep sw = nextSweep(gates, gi, ctx.chunkBits,
                                   prune ? &mask : nullptr);
        placement->beginSweep(sw);
        applySweepChunked(state, gates.subspan(sw.begin, sw.size()),
                          sw.globalBits, chunk_dead);
        // Re-apply the storage-precision policy before anything ships
        // or is checksummed: every later reader sees the same stored
        // values.
        state.refreshPrecision();

        for (; gi < sw.end; ++gi) {
            const GatePlan plan(gates[gi], n, ctx.chunkBits);
            // A group is dead only if every member chunk is provably
            // zero; dead groups are no-ops.
            live.clear();
            for (Index g = 0; g < plan.numGroups(); ++g) {
                if (prune)
                    plan.membersInto(g, members);
                if (!prune || std::any_of(members.begin(), members.end(),
                                          live_chunk))
                    live.push_back(g);
            }
            const double span = plan.chunksPerGroup();
            const double live_chunks =
                static_cast<double>(live.size()) * span;
            const double pruned_chunks =
                static_cast<double>(plan.numGroups() - live.size()) *
                span;
            result.stats.add(statkeys::chunksProcessed, live_chunks);
            result.stats.add(statkeys::chunksPruned, pruned_chunks);
            result.stats.add(statkeys::gatesApplied, 1.0);
            if (prune && result.trace.enabled()) {
                // Zero-length marker: the decision is host
                // bookkeeping with no modeled cost, but its outcome is
                // the counter the pruning figures are built from.
                const VTime at = placement->frontier();
                result.trace.record(
                    phases::prune, "decide", "host.prune", at, at,
                    {{statkeys::chunksProcessed, live_chunks},
                     {statkeys::chunksPruned, pruned_chunks}});
            }
            placement->gate(
                {gates[gi], gi, plan,
                 kernels::gateFlops(gates[gi], n) /
                     static_cast<double>(plan.numGroups()),
                 live});
            if (prune)
                mask.involve(gates[gi]);
        }
        placement->endSweep(sw);
    }
    placement->finish(gates.size());

    result.stats.set("chunks.final",
                     static_cast<double>(state.numChunks()));
    if (state.precision() == Precision::adaptive)
        result.stats.set("precision.promoted_chunks",
                         static_cast<double>(state.promotedChunks()));
    exportStorageStats(state, result.stats);
    return state.toFlat();
}

} // namespace qgpu

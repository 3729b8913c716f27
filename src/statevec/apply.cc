#include "statevec/apply.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <optional>

#include "common/cacheinfo.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "sched/sweep.hh"
#include "statevec/kernel_dispatch.hh"

namespace qgpu
{

GatePlan::GatePlan(const Gate &gate, int num_qubits, int chunk_bits)
    : GatePlan(gateGlobalBits(gate, chunk_bits), num_qubits,
               chunk_bits)
{
}

GatePlan::GatePlan(std::vector<int> global_bits, int num_qubits,
                   int chunk_bits)
    : chunkBits_(chunk_bits), globalBits_(std::move(global_bits))
{
    const int chunk_index_bits = num_qubits - chunk_bits;
    numGroups_ = Index{1}
                 << (chunk_index_bits
                     - static_cast<int>(globalBits_.size()));
}

void
GatePlan::membersInto(Index group, std::vector<Index> &out) const
{
    const Index base = bits::insertZeroBits(group, globalBits_);
    const int span = chunksPerGroup();
    out.clear();
    for (int s = 0; s < span; ++s) {
        Index idx = base;
        for (std::size_t j = 0; j < globalBits_.size(); ++j)
            if (bits::testBit(static_cast<std::uint64_t>(s),
                              static_cast<int>(j))) {
                idx = bits::setBit(idx, globalBits_[j]);
            }
        out.push_back(idx);
    }
}

std::vector<Index>
GatePlan::members(Index group) const
{
    std::vector<Index> out;
    out.reserve(chunksPerGroup());
    membersInto(group, out);
    return out;
}

namespace
{

/** Set while a ScopedGatherPath lives. */
std::atomic<bool> g_gather_path{false};

/** Kernel kind of a k-qubit diagonal gate (for the metrics counters). */
KernelKind
diagKindOf(int k)
{
    if (k == 1)
        return KernelKind::Diag1q;
    if (k == 2)
        return KernelKind::Diag2q;
    return KernelKind::DiagK;
}

/**
 * Apply a diagonal gate to one contiguous, aligned register slice
 * after the constant selector bits have been folded into
 * @p fixed_sel: the @p local (register bit, selector shift) pairs,
 * ascending by bit, drive the specialized contiguous diag kernels;
 * every other selector bit is constant for the slice.
 */
void
applyDiagFolded(Amp *data, Index size, int fixed_sel,
                std::span<const std::pair<int, int>> local,
                const GateMatrix &m)
{
    // No varying targets: one constant diagonal entry scales the
    // whole slice.
    if (local.empty()) {
        kern::scale(data, m.at(fixed_sel, fixed_sel), 0, size);
        return;
    }
    if (local.size() == 1) {
        const auto [q0, j0] = local[0];
        const int sel1 = fixed_sel | (1 << j0);
        kern::diag1(data, q0, m.at(fixed_sel, fixed_sel),
                    m.at(sel1, sel1), 0, size);
        return;
    }
    if (local.size() == 2) {
        const auto [qa, ja] = local[0];
        const auto [qb, jb] = local[1];
        Amp lut[4];
        for (int c = 0; c < 4; ++c) {
            const int sel = fixed_sel | ((c & 1) << ja) |
                            (((c >> 1) & 1) << jb);
            lut[c] = m.at(sel, sel);
        }
        kern::diag2(data, qa, qb, lut, 0, size);
        return;
    }
    // More varying bits: within an aligned sub-slice below the third
    // one only the lowest two vary, so fold the rest per sub-slice.
    const Index sub = Index{1} << local[2].first;
    for (Index a = 0; a < size; a += sub) {
        int sel = fixed_sel;
        for (const auto &[q, j] : local.subspan(2))
            sel |= static_cast<int>(bits::testBit(a, q)) << j;
        applyDiagFolded(data + a, sub, sel, local.first(2), m);
    }
}

/** Remap gate targets into the group-local register. */
Gate
remapGateForGroup(const Gate &gate, const std::vector<int> &global_bits,
                  int chunk_bits)
{
    Gate out = gate;
    for (int &q : out.qubits) {
        if (q >= chunk_bits) {
            const auto it = std::lower_bound(global_bits.begin(),
                                             global_bits.end(),
                                             q - chunk_bits);
            q = chunk_bits
                + static_cast<int>(it - global_bits.begin());
        }
    }
    return out;
}

/**
 * Per-worker reusable buffers of the gather path: the member chunk
 * indices, their liveness, and the contiguous gather register.
 * Capacity retained across groups is bounded by scratchRetainAmps()
 * (common/cacheinfo.hh): a single oversized group may grow the
 * buffer, but the excess is released before the next gather instead
 * of pinning the high-water mark.
 */
struct GroupScratch
{
    std::vector<Index> members;
    std::vector<char> live;
    std::vector<Amp> gathered;
};

/** Size the recycled gather buffer for @p need amplitudes. */
void
prepareGathered(GroupScratch &scratch, std::size_t need)
{
    const std::size_t cap = scratch.gathered.capacity();
    if (cap > need && cap > scratchRetainAmps())
        std::vector<Amp>().swap(scratch.gathered);
    scratch.gathered.resize(need);
}

/** Modeled amplitudes written by one full application of @p spec. */
Index
specAmps(const KernelSpec &spec, int num_qubits)
{
    return kernelWorkItems(spec, num_qubits) *
           static_cast<Index>(kernelItemWidth(spec));
}

/**
 * One gate of a sweep, pre-classified for the executor. Non-diagonal
 * gates carry their KernelSpec at the gate's own qubit positions,
 * which is what runs on chunks and in-place host blocks; diagonal
 * gates carry the matrix and their selector bits, folded per block.
 * Cross ops also get a spec for the gathered group register when the
 * gather path runs (prepareGatherPath).
 */
struct SweepOp
{
    const Gate *gate = nullptr;
    bool diag = false;
    bool cross = false; // non-diagonal, couples the sweep's G bits
    KernelSpec spec{};  // valid when !diag
    /** Cross ops on the gather path: targets remapped into the
     *  gathered register. */
    std::optional<KernelSpec> groupSpec;
    GateMatrix dm{0}; // valid when diag
    /** Diagonal: every (qubit, selector shift) pair, by qubit. */
    std::vector<std::pair<int, int>> sel;
    KernelKind kind{};
    Index amps = 0; // modeled amplitudes (per-gate kernel totals)
};

/**
 * Classify the gates of one sweep against the sweep's coupled bits
 * @p G (sorted chunk-index positions). Fatal if any gate couples a
 * different bit set — the span then isn't a sweep for this chunk
 * size.
 */
std::vector<SweepOp>
buildSweepOps(std::span<const Gate> gates, const std::vector<int> &G,
              int num_qubits, int chunk_bits)
{
    std::vector<SweepOp> ops(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &gate = gates[i];
        SweepOp &op = ops[i];
        op.gate = &gate;
        if (gate.isDiagonal()) {
            op.diag = true;
            op.dm = gate.matrix();
            for (int j = 0; j < gate.numQubits(); ++j)
                op.sel.emplace_back(gate.qubits[j], j);
            std::sort(op.sel.begin(), op.sel.end());
            op.kind = diagKindOf(gate.numQubits());
            op.amps = stateSize(num_qubits);
            continue;
        }
        // The gate's coupled bits (gateGlobalBits) must be exactly G;
        // its qubits are distinct, so checking membership and count
        // suffices.
        std::size_t coupled = 0;
        bool in_g = true;
        for (int q : gate.qubits) {
            if (q < chunk_bits)
                continue;
            ++coupled;
            in_g = in_g &&
                   std::binary_search(G.begin(), G.end(), q - chunk_bits);
        }
        if (coupled != 0) {
            if (!in_g || coupled != G.size())
                QGPU_PANIC("gate '", gate.toString(),
                           "' couples other chunk-index bits than its "
                           "sweep: not a sweep at chunk size ",
                           chunk_bits);
            op.cross = true;
        }
        op.spec = makeKernelSpec(gate);
        op.kind = op.spec.kind;
        // Work items depend only on the register size and the
        // gate's arity, so this equals groups x the per-group count.
        op.amps = specAmps(op.spec, num_qubits);
    }
    return ops;
}

/** Give the cross ops of a sweep over coupled bits @p G their
 *  gathered-register specs. */
void
prepareGatherPath(std::span<SweepOp> ops, const std::vector<int> &G,
                  int chunk_bits)
{
    for (SweepOp &op : ops)
        if (op.cross && !op.groupSpec)
            op.groupSpec = makeKernelSpec(
                remapGateForGroup(*op.gate, G, chunk_bits));
}

/**
 * Run one non-cross op over the aligned block of 2^@p bits amplitudes
 * at global index @p base, held at @p data. A non-diagonal op's
 * qubits all lie below @p bits; diagonal selector bits at or above it
 * are constant over the block and fold into the lookup.
 */
void
runOp(const SweepOp &op, Amp *data, int bits, Index base)
{
    if (!op.diag) {
        applyKernel(op.spec, data, bits);
        return;
    }
    std::size_t local = 0;
    while (local < op.sel.size() && op.sel[local].first < bits)
        ++local;
    int fixed = 0;
    for (const auto &[q, j] : std::span(op.sel).subspan(local))
        fixed |= static_cast<int>(bits::testBit(base, q)) << j;
    applyDiagFolded(data, Index{1} << bits, fixed,
                    std::span(op.sel).first(local), op.dm);
}

/** runOp for every op of a sweep, on a block every op fits in. */
void
runBlock(std::span<const SweepOp> ops, Amp *data, int bits, Index base)
{
    for (const SweepOp &op : ops)
        runOp(op, data, bits, base);
}

/**
 * Chunks the engine's predicate cannot prove zero. Under bounded
 * storage these are exactly the chunks that must be materialized and
 * processed: kernels may write -0.0 into a value-zero chunk, so
 * skipping a chunk the raw path would touch could diverge by sign
 * bits.
 */
std::vector<Index>
liveChunks(const ChunkedStateVector &state, const ZeroPredicate &zero)
{
    std::vector<Index> live;
    live.reserve(state.numChunks());
    for (Index c = 0; c < state.numChunks(); ++c)
        if (!(zero && zero(c)))
            live.push_back(c);
    return live;
}

/** Groups with at least one live member (all groups without a
 *  predicate), matching the skip decision of the unbounded path. */
std::vector<Index>
liveGroups(const GatePlan &plan, const ZeroPredicate &zero)
{
    std::vector<Index> out;
    out.reserve(plan.numGroups());
    std::vector<Index> members;
    for (Index g = 0; g < plan.numGroups(); ++g) {
        if (zero) {
            plan.membersInto(g, members);
            if (std::all_of(members.begin(), members.end(),
                            [&zero](Index c) { return zero(c); }))
                continue;
        }
        out.push_back(g);
    }
    return out;
}

/**
 * Pinned-block pipeline over @p items for bounded-storage states:
 * each block's chunks (expand() appends an item's chunks) are pinned
 * before processing, and the NEXT block's refills are issued
 * asynchronously on the pool while the current block computes — the
 * sweep-aware prefetch that overlaps decompression with kernel work.
 * Pinned chunks are never evicted, so parallel workers only ever see
 * stable resident slots. A block may transiently overshoot the
 * working-set budget when a single item spans more chunks than the
 * budget allows; correctness is unaffected (the overshoot drains as
 * soon as the block unpins).
 */
template <typename Expand, typename Process>
void
runPinnedBlocks(ChunkResidency &res, std::span<const Index> items,
                Index items_per_block, Expand &&expand,
                Process &&process)
{
    if (items.empty())
        return;
    const auto block = static_cast<std::size_t>(items_per_block);
    std::vector<Index> cur_chunks, next_chunks;
    const auto collect = [&](std::size_t lo, std::size_t n,
                             std::vector<Index> &out) {
        out.clear();
        for (std::size_t i = lo; i < lo + n; ++i)
            expand(items[i], out);
    };
    std::size_t at = 0;
    std::size_t cur_n = std::min(block, items.size());
    collect(0, cur_n, cur_chunks);
    res.pin(cur_chunks);
    while (at < items.size()) {
        const std::size_t next_n =
            std::min(block, items.size() - at - cur_n);
        if (next_n > 0) {
            collect(at + cur_n, next_n, next_chunks);
            res.pinAsync(next_chunks);
        }
        process(items.subspan(at, cur_n));
        res.unpin(cur_chunks);
        if (next_n > 0)
            res.waitPins();
        at += cur_n;
        cur_n = next_n;
        std::swap(cur_chunks, next_chunks);
    }
}

/** expand() for items that are chunk indices themselves. */
void
expandChunk(Index c, std::vector<Index> &out)
{
    out.push_back(c);
}

/**
 * Per-chunk path of a chunk-local sweep: each live chunk is loaded
 * once and every op chains over it while it is cache-resident. A
 * chunk that out-sizes the cache-derived sweep tile
 * (common/cacheinfo.hh) is processed in aligned sub-blocks of the
 * tile instead, so each op reads amplitudes the previous op just
 * wrote while they are still L2-resident. The tile is widened until
 * it clears every non-diagonal qubit of the sweep, so a sub-block
 * holds whole work items of every op.
 */
void
runChunks(ChunkedStateVector &state, std::span<const SweepOp> ops,
          const ZeroPredicate &zero)
{
    const int chunk_bits = state.chunkBits();
    const Index chunk_size = state.chunkSize();
    int tile_bits = sweepTileBits();
    for (const SweepOp &op : ops)
        if (!op.diag)
            for (int q : op.spec.qubits)
                tile_bits = std::max(tile_bits, q + 1);
    tile_bits = std::min(tile_bits, chunk_bits);
    const auto run_chunk = [&](Index c) {
        Amp *data = state.chunk(c).data();
        for (Index a = 0; a < chunk_size; a += Index{1} << tile_bits)
            runBlock(ops, data + a, tile_bits, (c << chunk_bits) + a);
    };
    const int threads = simThreads();
    const double chunk_cost = static_cast<double>(ops.size()) *
                              static_cast<double>(chunk_size);
    if (!state.boundedStorage()) {
        parallelFor(
            0, state.numChunks(), threads,
            [&](std::uint64_t lo, std::uint64_t hi) {
                for (Index c = lo; c < hi; ++c) {
                    if (zero && zero(c))
                        continue;
                    run_chunk(c);
                }
            },
            1, chunk_cost);
        return;
    }
    // Bounded storage: pin a working-set-sized block of live chunks,
    // compute it in parallel, and prefetch the next block's refills
    // on the pool meanwhile.
    ChunkResidency &res = *state.residency();
    const std::vector<Index> live = liveChunks(state, zero);
    runPinnedBlocks(res, live, res.maxPinnedBlock(), expandChunk,
                    [&](std::span<const Index> blk) {
                        parallelFor(
                            std::size_t{0}, blk.size(), threads,
                            [&](std::uint64_t lo, std::uint64_t hi) {
                                for (std::uint64_t i = lo; i < hi; ++i)
                                    run_chunk(blk[i]);
                            },
                            1, chunk_cost);
                    });
}

/**
 * Gather path of one cross-chunk group: gather the member chunks into
 * the worker's contiguous register, chain every op over it, scatter
 * back. Per-member liveness is computed once: the mask behind @p zero
 * is constant across a sweep, and skip decisions must match
 * gate-by-gate exactly (writing to a provably-zero chunk could flip
 * signed-zero bits).
 */
void
runGroup(ChunkedStateVector &state, std::span<const SweepOp> ops,
         const GatePlan &plan, Index g, const ZeroPredicate &zero,
         GroupScratch &scratch)
{
    const int chunk_bits = state.chunkBits();
    const Index chunk_size = state.chunkSize();
    const int sub_qubits =
        chunk_bits + static_cast<int>(plan.globalBits().size());
    const int span = plan.chunksPerGroup();
    plan.membersInto(g, scratch.members);
    bool any_live = true;
    if (zero) {
        scratch.live.assign(span, 0);
        any_live = false;
        for (int m = 0; m < span; ++m)
            if (!zero(scratch.members[m])) {
                scratch.live[m] = 1;
                any_live = true;
            }
    }
    if (!any_live)
        return;
    prepareGathered(scratch, stateSize(sub_qubits));
    Amp *reg = scratch.gathered.data();
    // Member chunks are pinned (bounded storage), so chunk() only
    // reads their slots.
    for (int m = 0; m < span; ++m)
        std::ranges::copy(state.chunk(scratch.members[m]),
                          reg + m * chunk_size);
    for (const SweepOp &op : ops) {
        if (op.cross) {
            // Whole gathered register, exactly like gate-by-gate's
            // group apply (which runs when any member is live).
            applyKernel(*op.groupSpec, reg, sub_qubits);
            continue;
        }
        for (int m = 0; m < span; ++m)
            if (!zero || scratch.live[m])
                runOp(op, reg + m * chunk_size, chunk_bits,
                      scratch.members[m] << chunk_bits);
    }
    for (int m = 0; m < span; ++m)
        std::ranges::copy_n(reg + m * chunk_size, chunk_size,
                            state.chunk(scratch.members[m]).begin());
}

/** Gather path of a cross-chunk sweep over coupled bits @p G: every
 *  group with a live member, fanned out across the pool. */
void
runGroups(ChunkedStateVector &state, std::span<const SweepOp> ops,
          const std::vector<int> &G, const ZeroPredicate &zero)
{
    const GatePlan plan(G, state.numQubits(), state.chunkBits());
    const int span = plan.chunksPerGroup();
    const int threads = simThreads();
    const double group_cost = static_cast<double>(ops.size()) *
                              static_cast<double>(state.chunkSize()) *
                              static_cast<double>(span);
    if (!state.boundedStorage()) {
        parallelFor(
            0, plan.numGroups(), threads,
            [&](std::uint64_t lo, std::uint64_t hi) {
                GroupScratch scratch;
                for (Index g = lo; g < hi; ++g)
                    runGroup(state, ops, plan, g, zero, scratch);
            },
            1, group_cost);
        return;
    }
    // Bounded storage: gather/scatter touch every member of a group,
    // so whole groups are pinned per block (all members, dead ones
    // included — a Zero chunk zero-fills to exactly the bytes the raw
    // path holds).
    ChunkResidency &res = *state.residency();
    const std::vector<Index> lg = liveGroups(plan, zero);
    const Index per_block =
        std::max<Index>(1, res.maxPinnedBlock() / span);
    std::vector<Index> members;
    runPinnedBlocks(
        res, lg, per_block,
        [&](Index g, std::vector<Index> &out) {
            plan.membersInto(g, members);
            out.insert(out.end(), members.begin(), members.end());
        },
        [&](std::span<const Index> blk) {
            parallelFor(
                std::size_t{0}, blk.size(), threads,
                [&](std::uint64_t lo, std::uint64_t hi) {
                    GroupScratch scratch;
                    for (std::uint64_t i = lo; i < hi; ++i)
                        runGroup(state, ops, plan, blk[i], zero,
                                 scratch);
                },
                1, group_cost);
        });
}

/**
 * Raw storage: run the sweep in place over host blocks of the arena
 * (DESIGN.md "Host geometry vs modeled geometry"). The liveness unit
 * is a chunk for a chunk-local sweep and, for a sweep coupling
 * chunk-index bits @p G, the aligned block of 2^H amplitudes with
 * H = chunkBits + max(G) + 1, which holds whole groups. Runs of
 * fully live units merge into aligned regions of up to a sweep tile,
 * and every op runs on a region at its own qubit positions: no
 * gather, no per-chunk calls. A unit with both live and dead chunks,
 * or a sweep whose unit out-sizes the tile, takes the gather path
 * group by group, so every skip decision is the gather path's.
 */
void
runHostBlocks(ChunkedStateVector &state, std::span<SweepOp> ops,
              const std::vector<int> &G, const ZeroPredicate &zero)
{
    const int n = state.numQubits();
    const int chunk_bits = state.chunkBits();
    const int threads = simThreads();
    const int tile = sweepTileBits();
    const int unit_bits =
        G.empty() ? chunk_bits : chunk_bits + G.back() + 1;
    if (!G.empty() && unit_bits > tile) {
        prepareGatherPath(ops, G, chunk_bits);
        runGroups(state, ops, G, zero);
        return;
    }
    // Smallest region every non-diagonal op fits in whole.
    int min_bits = G.empty() ? 0 : unit_bits;
    for (const SweepOp &op : ops)
        if (!op.diag)
            for (int q : op.spec.qubits)
                min_bits = std::max(min_bits, q + 1);
    // Regions of a tile, but at least four per worker over the whole
    // register so a small state still spreads across the pool.
    int region_bits = tile;
    if (threads > 1)
        region_bits = std::min(
            region_bits,
            n - 2 -
                static_cast<int>(std::bit_width(
                    static_cast<unsigned>(threads - 1))));
    region_bits = std::max(region_bits, min_bits);

    struct Item
    {
        Index base; // global index of the first amplitude
        int bits;
        bool gather; // a partly live unit: its groups, gathered
    };
    std::vector<Item> items;
    // Split the run [a, b) of fully live units into the largest
    // aligned regions of at most region_bits.
    const auto emit = [&](Index a, Index b) {
        for (Index lo = a << unit_bits, hi = b << unit_bits; lo < hi;) {
            int bits = std::min(
                region_bits, static_cast<int>(std::bit_width(hi - lo)) - 1);
            if (lo != 0)
                bits = std::min(bits, std::countr_zero(lo));
            items.push_back({lo, bits, false});
            lo += Index{1} << bits;
        }
    };
    const Index num_units = Index{1} << (n - unit_bits);
    const Index unit_chunks = Index{1} << (unit_bits - chunk_bits);
    Index run = 0;
    bool any_gather = false;
    for (Index u = 0; u < num_units; ++u) {
        Index live = unit_chunks;
        if (zero) {
            live = 0;
            for (Index c = u * unit_chunks; c < (u + 1) * unit_chunks;
                 ++c)
                live += zero(c) ? 0 : 1;
        }
        if (live == unit_chunks) {
            ++run;
            continue;
        }
        emit(u - run, u);
        run = 0;
        if (live != 0) {
            items.push_back({u << unit_bits, unit_bits, true});
            any_gather = true;
        }
    }
    emit(num_units - run, num_units);
    if (items.empty())
        return;

    std::optional<GatePlan> plan;
    if (any_gather) {
        prepareGatherPath(ops, G, chunk_bits);
        plan.emplace(G, n, chunk_bits);
    }
    const Index unit_groups =
        Index{1}
        << (unit_bits - chunk_bits - static_cast<int>(G.size()));
    Amp *arena = state.arena().data();
    parallelFor(
        std::size_t{0}, items.size(), threads,
        [&](std::uint64_t lo, std::uint64_t hi) {
            GroupScratch scratch;
            for (std::uint64_t i = lo; i < hi; ++i) {
                const Item &item = items[i];
                if (!item.gather) {
                    runBlock(ops, arena + item.base, item.bits,
                             item.base);
                    continue;
                }
                const Index g0 = (item.base >> unit_bits) * unit_groups;
                for (Index g = g0; g < g0 + unit_groups; ++g)
                    runGroup(state, ops, *plan, g, zero, scratch);
            }
        },
        1,
        static_cast<double>(ops.size()) *
            static_cast<double>(Index{1} << region_bits));
}

/**
 * The functional update of one sweep: in place over host blocks on
 * raw storage, through the per-chunk and gather path on bounded
 * storage (or when a ScopedGatherPath forces it).
 */
void
executeSweep(ChunkedStateVector &state, std::span<SweepOp> ops,
             const std::vector<int> &G, const ZeroPredicate &zero)
{
    const int index_bits = state.numQubits() - state.chunkBits();
    if (!G.empty() && G.back() >= index_bits)
        QGPU_PANIC("sweep couples chunk-index bit ", G.back(),
                   " of a ", index_bits, "-bit chunk index");
    if (!state.boundedStorage() &&
        !g_gather_path.load(std::memory_order_relaxed)) {
        runHostBlocks(state, ops, G, zero);
        return;
    }
    prepareGatherPath(ops, G, state.chunkBits());
    if (G.empty())
        runChunks(state, ops, zero);
    else
        runGroups(state, ops, G, zero);
}

/** Per-kind kernel counters for @p ops: the same totals as one
 *  recordKernelMetrics call per op, in one call per kind. */
void
recordOpMetrics(std::span<const SweepOp> ops)
{
    std::array<std::uint64_t, numKernelKinds> calls{};
    std::array<Index, numKernelKinds> amps{};
    for (const SweepOp &op : ops) {
        ++calls[static_cast<int>(op.kind)];
        amps[static_cast<int>(op.kind)] += op.amps;
    }
    for (int k = 0; k < numKernelKinds; ++k)
        if (calls[k] != 0)
            recordKernelMetrics(static_cast<KernelKind>(k), amps[k],
                                calls[k]);
}

} // namespace

ScopedGatherPath::ScopedGatherPath()
    : prev_(g_gather_path.exchange(true, std::memory_order_relaxed))
{
}

ScopedGatherPath::~ScopedGatherPath()
{
    g_gather_path.store(prev_, std::memory_order_relaxed);
}

void
applyGroup(ChunkedStateVector &state, const Gate &gate,
           const GatePlan &plan, Index group)
{
    std::vector<SweepOp> ops =
        buildSweepOps({&gate, 1}, plan.globalBits(), state.numQubits(),
                      state.chunkBits());
    const std::vector<Index> members = plan.perChunk()
                                           ? std::vector<Index>{group}
                                           : plan.members(group);
    executeSweep(state, ops, plan.globalBits(), [&members](Index c) {
        return !std::binary_search(members.begin(), members.end(), c);
    });
}

void
applyGateChunked(ChunkedStateVector &state, const Gate &gate,
                 const ZeroPredicate &zero)
{
    const WallClock wall;
    const std::vector<int> G = gateGlobalBits(gate, state.chunkBits());
    std::vector<SweepOp> ops = buildSweepOps(
        {&gate, 1}, G, state.numQubits(), state.chunkBits());
    executeSweep(state, ops, G, zero);
    recordOpMetrics(ops);
    MetricsRegistry::global().observe("apply.wall_time",
                                      wall.seconds());
}

void
applySweepChunked(ChunkedStateVector &state,
                  std::span<const Gate> gates,
                  const std::vector<int> &global_bits,
                  const ZeroPredicate &zero)
{
    if (gates.empty())
        return;
    const WallClock wall;
    std::vector<SweepOp> ops = buildSweepOps(
        gates, global_bits, state.numQubits(), state.chunkBits());
    executeSweep(state, ops, global_bits, zero);

    // Kernel counters once per gate per sweep, with the same modeled
    // totals applyGateChunked records; the sweep counters expose how
    // many full passes over the state the circuit actually cost.
    recordOpMetrics(ops);
    auto &mr = MetricsRegistry::global();
    mr.add("sweep.count");
    mr.add("sweep.state_passes");
    mr.observe("sweep.gates_per_sweep",
               static_cast<double>(gates.size()));
    mr.observe("apply.wall_time", wall.seconds());
}

void
applyCircuitChunked(ChunkedStateVector &state, const Circuit &circuit)
{
    if (circuit.numQubits() != state.numQubits())
        QGPU_PANIC("circuit register ", circuit.numQubits(),
                   " != state register ", state.numQubits());
    const std::span<const Gate> gates{circuit.gates()};
    std::size_t at = 0;
    while (at < gates.size()) {
        const Sweep sweep = nextSweep(gates, at, state.chunkBits());
        applySweepChunked(state,
                          gates.subspan(sweep.begin, sweep.size()),
                          sweep.globalBits);
        at = sweep.end;
    }
}

} // namespace qgpu

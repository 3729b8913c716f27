/**
 * @file
 * Chunk-aware gate application. A gate partitions the chunks into
 * independent work groups: diagonal or chunk-local gates touch each
 * chunk alone (the paper's Case 1), while a non-diagonal gate with
 * targets above the chunk boundary pairs chunks at a stride (Case 2).
 *
 * Engines walk the groups themselves (to schedule transfers and skip
 * pruned groups); the functional update for one group lives here so
 * every engine computes bit-identical states.
 *
 * Groups of one plan touch disjoint chunk sets, so applying many
 * groups concurrently is race-free by construction; the executors
 * fan work out across the shared thread pool (common/thread_pool.hh)
 * when simThreads() > 1.
 *
 * Gate application itself goes through the kernel-dispatch layer
 * (statevec/kernel_dispatch.hh): each gate is classified once into a
 * KernelKind. Under raw storage the kernels run in place on the
 * contiguous arena, over aligned host blocks that hold whole groups
 * and span many modeled chunks. Under bounded storage (and for host
 * blocks that are only partly live) chunk-local work runs on each
 * chunk and cross-chunk groups are gathered into a per-worker
 * register, updated, and scattered back. Both give the same bytes.
 */

#ifndef QGPU_STATEVEC_APPLY_HH
#define QGPU_STATEVEC_APPLY_HH

#include <functional>
#include <span>
#include <vector>

#include "statevec/chunked.hh"

namespace qgpu
{

/** Predicate: is chunk @p c guaranteed all-zero? */
using ZeroPredicate = std::function<bool(Index)>;

/**
 * Decomposition of one gate into independent chunk groups for a given
 * chunk size.
 */
class GatePlan
{
  public:
    GatePlan(const Gate &gate, int num_qubits, int chunk_bits);

    /** Plan for a whole sweep: the shared coupled chunk-index bit
     *  positions (sorted) instead of one gate's. An empty list is the
     *  per-chunk plan. */
    GatePlan(std::vector<int> global_bits, int num_qubits,
             int chunk_bits);

    /** True iff every group is a single chunk (paper's Case 1). */
    bool perChunk() const { return globalBits_.empty(); }

    /** Chunk-index bit positions that the gate couples (Case 2). */
    const std::vector<int> &globalBits() const { return globalBits_; }

    /** Number of independent groups. */
    Index numGroups() const { return numGroups_; }

    /** Chunks per group: 1 << globalBits.size(). */
    int chunksPerGroup() const { return 1 << globalBits_.size(); }

    /** Chunk indices belonging to group @p group (ascending). */
    std::vector<Index> members(Index group) const;

    /** members() into @p out (cleared first): the allocation-free
     *  form used by the parallel fan-out's per-worker scratch. */
    void membersInto(Index group, std::vector<Index> &out) const;

  private:
    int chunkBits_;
    std::vector<int> globalBits_; // sorted positions in chunk-index space
    Index numGroups_;
};

/**
 * Apply @p gate to the chunks of group @p group only. All other groups
 * are untouched; applying the gate to every group in any order yields
 * the full-state update.
 */
void applyGroup(ChunkedStateVector &state, const Gate &gate,
                const GatePlan &plan, Index group);

/**
 * Apply @p gate to the whole chunked state, skipping groups whose
 * member chunks are all reported zero by @p zero (mathematically a
 * no-op: an all-zero vector stays zero under any linear map). The
 * surviving groups run concurrently on the thread pool. @p zero must
 * be safe to call from several threads (engines pass pure functions
 * of immutable masks).
 */
void applyGateChunked(ChunkedStateVector &state, const Gate &gate,
                      const ZeroPredicate &zero = {});

/**
 * Apply one scheduled sweep (sched/sweep.hh) of @p gates in a single
 * pass: instead of sweeping the whole state once per gate, each host
 * block (raw storage), chunk, or gathered cross-chunk register is
 * loaded once and every gate of the sweep is chained over it while it
 * is cache-resident. One parallelFor dispatch covers the whole sweep.
 *
 * Bit-identity contract: the result is bit-identical to running the
 * gates through applyGateChunked in order with the same @p zero
 * predicate. That holds because (a) the sweep partition refines or
 * equals each member gate's own partition, so per-amplitude operation
 * order is preserved, (b) gather/scatter are pure copies and an
 * in-place host block applies every amplitude's matrix entries in the
 * same order, and (c) the executor makes exactly the same skip
 * decisions: chunk-local and diagonal work skips dead member chunks
 * individually, cross-chunk kernels run whenever any member is live,
 * and a host block runs in place only when all its chunks are live.
 * @p zero must be constant across the sweep (sched/sweep.hh's
 * involvement-boundary rule guarantees the involvement mask is).
 *
 * Every gate must be chunk-local/diagonal or couple exactly the bits
 * in @p global_bits (sorted chunk-index positions) — i.e. the span
 * must be a sweep produced by nextSweep at this chunk size; anything
 * else is fatal.
 *
 * Publishes sweep.count / sweep.state_passes counters, the
 * sweep.gates_per_sweep histogram, and per-gate kernel counters with
 * the same modeled totals as applyGateChunked (once per gate per
 * sweep, never per chunk).
 */
void applySweepChunked(ChunkedStateVector &state,
                       std::span<const Gate> gates,
                       const std::vector<int> &global_bits,
                       const ZeroPredicate &zero = {});

/**
 * Test-only RAII override: while it lives, raw-storage sweeps take
 * the per-chunk and gather path that bounded storage uses instead of
 * in-place host blocks, so the differential suites can compare the
 * two host paths on one state. Process-wide, like
 * ScopedScalarKernels.
 */
class ScopedGatherPath
{
  public:
    ScopedGatherPath();
    ~ScopedGatherPath();
    ScopedGatherPath(const ScopedGatherPath &) = delete;
    ScopedGatherPath &operator=(const ScopedGatherPath &) = delete;

  private:
    bool prev_;
};

/** Run a whole circuit sweep-by-sweep (nextSweep at the state's chunk
 *  size feeding applySweepChunked), the single-pass-per-sweep default
 *  path. */
void applyCircuitChunked(ChunkedStateVector &state,
                         const Circuit &circuit);

} // namespace qgpu

#endif // QGPU_STATEVEC_APPLY_HH

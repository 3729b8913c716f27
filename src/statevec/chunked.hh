/**
 * @file
 * Chunked state vector, mirroring QISKit-Aer's partitioning (paper
 * §III-B Step 1): the top index bits select a chunk, the low
 * @c chunkBits bits are the offset inside it. Chunks are the unit of
 * CPU<->GPU transfer, pruning, and compression.
 */

#ifndef QGPU_STATEVEC_CHUNKED_HH
#define QGPU_STATEVEC_CHUNKED_HH

#include <memory>
#include <span>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "statevec/chunk_storage.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{

/**
 * A state vector stored as 2^(n - chunkBits) chunks of 2^chunkBits
 * amplitudes each. The chunks are the modeled geometry; raw storage
 * holds the whole register in one contiguous arena of which chunk c is
 * a span, bounded storage one slot per chunk (DESIGN.md "Host
 * geometry vs modeled geometry").
 */
class ChunkedStateVector
{
  public:
    /** Initialize to |0...0>. */
    ChunkedStateVector(int num_qubits, int chunk_bits);

    /**
     * Initialize to |0...0> under the given storage policy. Non-raw
     * kinds never materialize the full register: all chunks start
     * elided (known zero) and only the working set is ever
     * decompressed at once — the memory headroom the compressed /
     * spill backends exist for.
     */
    ChunkedStateVector(int num_qubits, int chunk_bits,
                       const StorageConfig &storage);

    // The residency manager points back at this object's chunk slots,
    // so the state is pinned in place.
    ChunkedStateVector(const ChunkedStateVector &) = delete;
    ChunkedStateVector &operator=(const ChunkedStateVector &) = delete;

    int numQubits() const { return numQubits_; }
    int chunkBits() const { return chunkBits_; }
    Index numChunks() const { return Index{1} << (numQubits_ - chunkBits_); }
    Index chunkSize() const { return Index{1} << chunkBits_; }

    /**
     * Stored bytes of one chunk — the unit every modeled H2D/D2H/peer
     * transfer and capacity computation is priced in. Halves in f32
     * mode. Adaptive mode reports the f64 size here (chunks start in
     * the fp32 lane but may be promoted at any sweep, so uniform
     * capacity planning must assume the larger lane); per-chunk
     * accounting uses chunkStoredBytes.
     */
    std::uint64_t chunkBytes() const
    {
        return chunkSize() * (precision_ == Precision::f32
                                  ? ampStoredBytes(true)
                                  : ampBytes);
    }

    /**
     * Direct chunk access. Under bounded storage a non-resident chunk
     * is made resident first (scheduling thread only — parallel
     * workers must touch pinned chunks exclusively, which are always
     * resident); the empty-slot check makes resident access free.
     */
    std::span<Amp> chunk(Index c)
    {
        if (residency_ && slots_[c].empty())
            residency_->ensure(c);
        return chunkData(c);
    }
    std::span<const Amp> chunk(Index c) const
    {
        if (residency_ && slots_[c].empty())
            residency_->ensure(c);
        return chunkData(c);
    }

    /**
     * The whole register as one contiguous span (raw storage; empty
     * under bounded storage, whose chunks live in separate slots).
     */
    std::span<Amp> arena() { return arena_; }
    std::span<const Amp> arena() const { return arena_; }

    /** Global amplitude accessor. */
    Amp &amp(Index i)
    {
        if (!residency_)
            return arena_[i];
        return chunk(i >> chunkBits_)[i & bits::lowMask(chunkBits_)];
    }
    const Amp &amp(Index i) const
    {
        if (!residency_)
            return arena_[i];
        return chunk(i >> chunkBits_)[i & bits::lowMask(chunkBits_)];
    }

    /** Back to |0...0> at the current geometry, storage and
     *  precision, reusing the raw arena's memory. */
    void reset();

    /**
     * Re-partition into chunks of @p new_bits amplitudes. Used by the
     * dynamic chunk-size selection of Algorithm 1. Under raw storage
     * this only relabels the arena; no amplitude moves.
     */
    void rechunk(int new_bits);

    /** True iff every amplitude in chunk @p c is exactly zero. */
    bool chunkIsZero(Index c) const;

    /** Copy out as a flat state vector. */
    StateVector toFlat() const;

    /**
     * The final state as a flat vector: under raw storage the arena
     * itself is moved out, with no copy, and this object is left
     * without amplitudes; under bounded storage, toFlat().
     */
    StateVector takeFlat();

    /** Load from a flat state vector (must match register size). */
    void fromFlat(const StateVector &state);

    /** Sum of |a_i|^2 over all chunks. */
    double norm() const;

    /** Storage precision mode (Precision::f64 unless selected). */
    Precision precision() const { return precision_; }

    /** Adaptive promotion threshold (see setPrecision). */
    double promoteThreshold() const { return promoteThreshold_; }

    /**
     * Select the storage precision (common/types.hh). @c f32 places
     * every chunk in the fp32 lane and rounds it immediately;
     * @c adaptive tags chunks individually — a chunk whose largest
     * amplitude component magnitude falls below
     * @p promote_threshold is promoted to (kept in) the f64 lane,
     * everything else lives in the fp32 lane; @c f64 clears all tags.
     * Computation is always double: the lane only decides how the
     * chunk is STORED between sweeps, i.e. what the transfers and the
     * codec move.
     */
    void setPrecision(Precision p, double promote_threshold = 1e-6);

    /**
     * Re-apply the precision policy after a sweep's functional
     * updates: adaptive mode re-tags every chunk, then each fp32-lane
     * chunk is rounded through fp32 storage (quantizeAmpF32). No-op
     * in f64 mode. Elementwise and lane decisions are per chunk, so
     * the result is independent of thread count and chunk geometry
     * only decides tag granularity.
     */
    void refreshPrecision();

    /** True when chunk @p c currently lives in the fp32 lane. */
    bool chunkIsF32(Index c) const
    {
        return !chunkF32_.empty() && chunkF32_[c] != 0;
    }

    /** Stored bytes of chunk @p c under its current lane. */
    std::uint64_t chunkStoredBytes(Index c) const
    {
        return chunkSize() * ampStoredBytes(chunkIsF32(c));
    }

    /** Stored bytes of the whole register under current lanes. */
    std::uint64_t totalStoredBytes() const;

    /** Chunks currently in the f64 lane due to adaptive promotion
     *  (0 outside adaptive mode). */
    Index promotedChunks() const;

    /** True when a bounded (non-raw) storage backend is active. */
    bool boundedStorage() const { return residency_ != nullptr; }

    /** The residency manager (nullptr under raw storage). Sweep
     *  executors use it to pin the chunk blocks they work on. */
    ChunkResidency *residency() const { return residency_.get(); }

    /**
     * Switch the storage policy of an existing state. Leaving raw
     * scans current chunks (byte-zero ones are elided) and evicts
     * down to the working-set bound; returning to raw materializes
     * everything.
     */
    void configureStorage(const StorageConfig &storage);

    /** Per-chunk owning device for shard-balanced eviction
     *  (no-op under raw storage). */
    void setDeviceMap(std::vector<int> device_of)
    {
        if (residency_)
            residency_->setDeviceMap(std::move(device_of));
    }

    /** Storage counters (all zero under raw storage). */
    StorageStats storageStats() const
    {
        return residency_ ? residency_->stats() : StorageStats{};
    }

  private:
    /** Chunk @p c's amplitudes, with no residency check. */
    std::span<Amp> chunkData(Index c)
    {
        if (residency_)
            return slots_[c];
        return {arena_.data() + (c << chunkBits_), chunkSize()};
    }
    std::span<const Amp> chunkData(Index c) const
    {
        if (residency_)
            return slots_[c];
        return {arena_.data() + (c << chunkBits_), chunkSize()};
    }

    void retagChunks();
    void setupResidency();
    /** Bounded -> raw layout: materialize every slot into the arena
     *  and drop the residency manager. */
    void joinSlots();
    /** Raw -> bounded layout under storageCfg_. */
    void splitArena();

    int numQubits_;
    int chunkBits_;
    /** The register under raw storage; empty under bounded storage. */
    std::vector<Amp> arena_;
    /** One slot per chunk under bounded storage; empty under raw. */
    std::vector<std::vector<Amp>> slots_;
    Precision precision_ = Precision::f64;
    double promoteThreshold_ = 1e-6;
    /** Per-chunk lane tag (1 = fp32); empty in f64 mode. */
    std::vector<std::uint8_t> chunkF32_;
    StorageConfig storageCfg_;
    /** Present only under bounded storage; declared last so it is
     *  destroyed before the chunk slots it references. */
    std::unique_ptr<ChunkResidency> residency_;
};

} // namespace qgpu

#endif // QGPU_STATEVEC_CHUNKED_HH

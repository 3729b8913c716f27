#include "compress/gfc.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <type_traits>

#include "common/bits.hh"
#include "common/cacheinfo.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace qgpu
{

namespace
{

/**
 * The codec runs in two lane widths: the classic GFC stream of
 * 64-bit doubles, and an fp32 lane (for Precision::f32 chunks) where
 * every element is a 32-bit float. The structure is identical — only
 * the word width changes — so the helpers are templated on the
 * floating type. @c WordOf maps it to the raw-bit integer.
 */
template <typename Fp>
struct WordOf;

template <>
struct WordOf<double>
{
    using type = std::uint64_t;
};

template <>
struct WordOf<float>
{
    using type = std::uint32_t;
};

template <typename Fp>
using Word = typename WordOf<Fp>::type;

/** Bit-pattern of a floating value as an unsigned integer. */
template <typename Fp>
Word<Fp>
toBits(Fp v)
{
    return std::bit_cast<Word<Fp>>(v);
}

template <typename Fp>
Fp
fromBits(Word<Fp> bits)
{
    return std::bit_cast<Fp>(bits);
}

/**
 * Leading-zero bytes of a magnitude, capped at sizeof(word) - 1 so a
 * zero residual still emits one payload byte (the 3-bit nibble field
 * holds up to 7, which also covers the fp32 cap of 3).
 */
template <typename W>
int
leadingZeroBytes(W mag)
{
    const int lz_bits = std::countl_zero(mag);
    return std::min(lz_bits / 8, static_cast<int>(sizeof(W)) - 1);
}

template <typename W>
struct Residual
{
    bool negative;
    W magnitude;
};

/**
 * Residual between bit patterns, computed modulo 2^width so that
 * reconstruction (prev + signed residual) is exact for every input.
 */
template <typename W>
Residual<W>
residualOf(W cur, W prev)
{
    const W diff = static_cast<W>(cur - prev); // mod 2^width
    if (diff > static_cast<W>(W{1} << (8 * sizeof(W) - 1)))
        return {true, static_cast<W>(~diff + 1)}; // -diff mod 2^width
    return {false, diff};
}

/**
 * The encode-side residual of element @p i of a segment. Lane j of
 * micro-chunk k chains to lane j of micro-chunk k-1, i.e. element
 * i - warp: the residual is a pure function of two inputs, which is
 * what makes the codec parallel over element ranges.
 */
template <typename Fp>
Residual<Word<Fp>>
elementResidual(const Fp *seg, std::uint64_t i, int warp)
{
    const Word<Fp> cur = toBits(seg[i]);
    const Word<Fp> prev =
        i >= static_cast<std::uint64_t>(warp)
            ? toBits(seg[i - static_cast<std::uint64_t>(warp)])
            : Word<Fp>{0};
    return residualOf(cur, prev);
}

/** Payload bytes of elements [lo, hi) of a segment. */
template <typename Fp>
std::uint64_t
payloadBytesRange(const Fp *seg, std::uint64_t lo, std::uint64_t hi,
                  int warp)
{
    std::uint64_t total = 0;
    for (std::uint64_t i = lo; i < hi; ++i) {
        const auto r = elementResidual(seg, i, warp);
        total += static_cast<std::uint64_t>(
            static_cast<int>(sizeof(Word<Fp>)) -
            leadingZeroBytes(r.magnitude));
    }
    return total;
}

/**
 * Minimum elements per concurrent codec range, derived from the L1d
 * size (common/cacheinfo.hh) so each range's working set stays
 * cache-resident; env-overridable via QGPU_L1D_BYTES.
 */
std::uint64_t
codecGrain()
{
    static const std::uint64_t grain =
        static_cast<std::uint64_t>(codecGrainWords());
    return grain;
}

/**
 * True when a pass over @p m words runs as one range: one worker, or
 * under two codec grains of work (evenRanges would not split it).
 * Such passes skip the pool and every per-range scratch vector.
 */
bool
singleRange(std::uint64_t m, int threads)
{
    return threads <= 1 || m < 2 * codecGrain();
}

/**
 * Workers for the segments of a block of @p count words: a block
 * under one codec grain is less work than a pool round trip and
 * stays on the calling thread.
 */
int
blockThreads(std::uint64_t count)
{
    return count < codecGrain() ? 1 : simThreads();
}

/**
 * Run @p body(i) for i in [0, n): across the pool, one item per
 * task, when @p threads > 1; as a plain loop otherwise (no
 * std::function, no pool round trip).
 */
template <typename Body>
void
forEachItem(std::uint64_t n, int threads, const Body &body)
{
    if (threads <= 1) {
        for (std::uint64_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    parallelFor(
        0, n, threads,
        [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i)
                body(i);
        },
        1);
}

/**
 * Split [0, m) into at most @p threads ranges on even element
 * boundaries (two elements share a nibble byte, so an even split
 * keeps every output byte owned by exactly one range).
 */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
evenRanges(std::uint64_t m, int threads)
{
    const std::uint64_t want =
        std::max<std::uint64_t>(1, m / codecGrain());
    const int parts = static_cast<int>(std::min<std::uint64_t>(
        threads < 1 ? 1 : threads, want));
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    ranges.reserve(parts);
    std::uint64_t lo = 0;
    for (int r = 0; r < parts; ++r) {
        std::uint64_t hi =
            r + 1 == parts
                ? m
                : (m * static_cast<std::uint64_t>(r + 1) /
                   static_cast<std::uint64_t>(parts)) &
                      ~std::uint64_t{1};
        hi = std::max(hi, lo);
        ranges.emplace_back(lo, hi);
        lo = hi;
    }
    ranges.back().second = m;
    return ranges;
}

/**
 * Encode elements [lo, hi) of a segment: nibbles into the shared
 * nibble area (disjoint bytes per even-aligned range), payload bytes
 * starting at @p payload.
 */
template <typename Fp>
void
encodeRange(const Fp *seg, std::uint64_t lo, std::uint64_t hi,
            int warp, std::uint8_t *nib_area, std::uint8_t *payload)
{
    for (std::uint64_t i = lo; i < hi; ++i) {
        const auto r = elementResidual(seg, i, warp);
        const int lzb = leadingZeroBytes(r.magnitude);
        const std::uint8_t nib =
            static_cast<std::uint8_t>((r.negative ? 8 : 0) | lzb);
        if (i % 2 == 0)
            nib_area[i / 2] = nib;
        else
            nib_area[i / 2] |= static_cast<std::uint8_t>(nib << 4);

        const int bytes = static_cast<int>(sizeof(Word<Fp>)) - lzb;
        for (int b = 0; b < bytes; ++b)
            *payload++ =
                static_cast<std::uint8_t>(r.magnitude >> (8 * b));
    }
}

/**
 * Encode one whole segment of @p m words into @p dst (layout:
 * (m+1)/2 nibble bytes, then payload). @p dst must hold exactly the
 * segment's compressed size; @p threads > 1 fans element ranges out
 * across the pool with output bit-identical to the serial order.
 */
template <typename Fp>
void
encodeSegment(const Fp *seg, std::uint64_t m, int warp, int threads,
              std::uint8_t *dst)
{
    const std::uint64_t nib_len = (m + 1) / 2;
    if (singleRange(m, threads)) {
        encodeRange(seg, 0, m, warp, dst, dst + nib_len);
        return;
    }
    const auto ranges = evenRanges(m, threads);
    // Pass 1: payload size of each range; prefix-sum the offsets.
    std::vector<std::uint64_t> offset(ranges.size() + 1, 0);
    forEachItem(ranges.size(), threads, [&](std::uint64_t r) {
        offset[r + 1] = payloadBytesRange(seg, ranges[r].first,
                                          ranges[r].second, warp);
    });
    for (std::size_t r = 1; r <= ranges.size(); ++r)
        offset[r] += offset[r - 1];
    // Pass 2: each range encodes into its own slice.
    forEachItem(ranges.size(), threads, [&](std::uint64_t r) {
        encodeRange(seg, ranges[r].first, ranges[r].second, warp, dst,
                    dst + nib_len + offset[r]);
    });
}

/** Nibble of element @p i read back from the nibble area. */
std::uint8_t
nibbleAt(const std::uint8_t *nib_area, std::uint64_t i)
{
    const std::uint8_t packed = nib_area[i / 2];
    return i % 2 == 0 ? (packed & 0x0f)
                      : static_cast<std::uint8_t>(packed >> 4);
}

/** Payload bytes the nibbles of elements [lo, hi) announce. */
template <typename W>
std::uint64_t
nibblePayloadBytes(const std::uint8_t *nib_area, std::uint64_t lo,
                   std::uint64_t hi)
{
    constexpr int word_bytes = static_cast<int>(sizeof(W));
    std::uint64_t total = 0;
    for (std::uint64_t i = lo; i < hi; ++i)
        total += static_cast<std::uint64_t>(
            word_bytes - (nibbleAt(nib_area, i) & 0x7));
    return total;
}

/**
 * Read element @p i's signed residual addend (mod 2^width) from
 * @p payload, advancing it past the element's magnitude bytes.
 */
template <typename W>
W
readAddend(const std::uint8_t *nib_area, std::uint64_t i,
           const std::uint8_t *&payload)
{
    const std::uint8_t nib = nibbleAt(nib_area, i);
    const int bytes = static_cast<int>(sizeof(W)) - (nib & 0x7);
    W mag = 0;
    for (int b = 0; b < bytes; ++b)
        mag |= static_cast<W>(*payload++) << (8 * b);
    return (nib & 0x8) ? static_cast<W>(~mag + 1) : mag;
}

/**
 * Decode one segment of @p m words from @p src (sized @p seg_bytes,
 * validated against the nibble-derived layout before any payload
 * byte is read) into @p out.
 *
 * A single-range segment decodes in one pass: element i is element
 * i - warp plus its addend, read back from @p out itself. The
 * parallel path reconstructs each lane's running value with a
 * prefix combine: residual addends are mod-2^width integers, so
 * partial per-range, per-lane sums compose exactly, and every range
 * can decode independently from its combined lane start state.
 */
template <typename Fp>
void
decodeSegment(const std::uint8_t *src, std::uint64_t seg_bytes,
              std::uint64_t m, int warp, int threads, Fp *out)
{
    using W = Word<Fp>;
    const std::uint64_t nib_len = (m + 1) / 2;
    if (seg_bytes < nib_len)
        QGPU_PANIC("GFC segment of ", m, " words shorter (",
                   seg_bytes, " bytes) than its nibble area");
    const std::uint8_t *payload_area = src + nib_len;
    const std::uint64_t payload_len = seg_bytes - nib_len;
    const std::uint64_t uwarp = static_cast<std::uint64_t>(warp);
    const auto check_payload = [&](std::uint64_t implied) {
        if (implied != payload_len)
            QGPU_PANIC("GFC segment nibbles imply ", implied,
                       " payload bytes, header says ", payload_len);
    };

    if (singleRange(m, threads)) {
        check_payload(nibblePayloadBytes<W>(src, 0, m));
        const std::uint8_t *payload = payload_area;
        for (std::uint64_t i = 0; i < m; ++i) {
            const W prev = i >= uwarp ? toBits(out[i - uwarp]) : W{0};
            out[i] = fromBits<Fp>(static_cast<W>(
                prev + readAddend<W>(src, i, payload)));
        }
        return;
    }

    const auto ranges = evenRanges(m, threads);
    const std::size_t num_ranges = ranges.size();

    // Payload offset of each range, from the nibble area alone.
    std::vector<std::uint64_t> offset(num_ranges + 1, 0);
    forEachItem(num_ranges, threads, [&](std::uint64_t r) {
        offset[r + 1] = nibblePayloadBytes<W>(src, ranges[r].first,
                                              ranges[r].second);
    });
    for (std::size_t r = 1; r <= num_ranges; ++r)
        offset[r] += offset[r - 1];
    check_payload(offset[num_ranges]);

    // Pass 2: decode each range's signed residual addends (stashed
    // in out as raw bit patterns) and its per-lane addend sums.
    std::vector<W> lane_sums(
        num_ranges * static_cast<std::size_t>(warp), 0);
    forEachItem(num_ranges, threads, [&](std::uint64_t r) {
        const std::uint8_t *payload = payload_area + offset[r];
        W *lanes = lane_sums.data() + r * uwarp;
        for (std::uint64_t i = ranges[r].first; i < ranges[r].second;
             ++i) {
            const W addend = readAddend<W>(src, i, payload);
            lanes[i % uwarp] += addend;
            out[i] = fromBits<Fp>(addend);
        }
    });

    // Serial combine: lane start states per range.
    std::vector<W> lane_base(lane_sums.size(), 0);
    for (std::size_t r = 1; r < num_ranges; ++r)
        for (int l = 0; l < warp; ++l)
            lane_base[r * static_cast<std::size_t>(warp) + l] =
                lane_base[(r - 1) * static_cast<std::size_t>(warp) +
                          l] +
                lane_sums[(r - 1) * static_cast<std::size_t>(warp) +
                          l];

    // Pass 3: turn addends into values from each lane's start state
    // (kept in lane_base, whose range-r slice only range r touches).
    forEachItem(num_ranges, threads, [&](std::uint64_t r) {
        W *lane = lane_base.data() + r * uwarp;
        for (std::uint64_t i = ranges[r].first; i < ranges[r].second;
             ++i) {
            W &v = lane[i % uwarp];
            v += toBits(out[i]); // addend, mod 2^width
            out[i] = fromBits<Fp>(v);
        }
    });
}

void
putU32(std::uint8_t *dst, std::uint32_t v)
{
    for (int b = 0; b < 4; ++b)
        dst[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

void
putU64(std::uint8_t *dst, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b)
        dst[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

std::uint64_t
headerBytesFor(std::uint64_t count, int segments)
{
    const std::uint64_t per =
        bits::ceilDiv(count, static_cast<std::uint64_t>(segments));
    const std::uint64_t num_segs =
        per == 0 ? 0 : bits::ceilDiv(count, per);
    return 8 + 4 + 4 * num_segs;
}

template <typename Fp>
void
compressIntoImpl(const Fp *data, std::uint64_t count, int warp,
                 int segments, CompressedBlock &block)
{
    block.numDoubles = count;
    block.f32 = std::is_same_v<Fp, float>;

    const std::uint64_t per =
        bits::ceilDiv(count, static_cast<std::uint64_t>(segments));
    const int num_segs =
        per == 0 ? 0 : static_cast<int>(bits::ceilDiv(count, per));
    const int threads = blockThreads(count);

    // Pass 1: exact size of every segment, so the stream is written
    // in place (parallel across segments; a lone segment
    // parallelizes internally instead).
    std::vector<std::uint64_t> seg_bytes(num_segs, 0);
    const auto seg_span = [&](std::uint64_t s) {
        const std::uint64_t lo = s * per;
        return std::pair<std::uint64_t, std::uint64_t>{
            lo, std::min(count, lo + per)};
    };
    const int outer = num_segs > 1 ? threads : 1;
    const int inner = num_segs > 1 ? 1 : threads;
    forEachItem(num_segs, outer, [&](std::uint64_t s) {
        const auto [a, b] = seg_span(s);
        const std::uint64_t m = b - a;
        std::uint64_t payload = 0;
        if (inner > 1) {
            std::atomic<std::uint64_t> sum{0};
            parallelFor(
                a, b, inner,
                [&](std::uint64_t l, std::uint64_t h) {
                    sum.fetch_add(payloadBytesRange(data, l, h, warp),
                                  std::memory_order_relaxed);
                },
                codecGrain());
            payload = sum.load();
        } else {
            payload =
                payloadBytesRange(data + a, std::uint64_t{0}, m, warp);
        }
        seg_bytes[s] = (m + 1) / 2 + payload;
    });

    const std::uint64_t header = headerBytesFor(count, segments);
    std::uint64_t total = header;
    for (int s = 0; s < num_segs; ++s)
        total += seg_bytes[s];
    auto &out = block.bytes;
    out.assign(total, 0);

    putU64(out.data(), count);
    putU32(out.data() + 8, static_cast<std::uint32_t>(num_segs));
    std::vector<std::uint64_t> seg_start(num_segs + 1, header);
    for (int s = 0; s < num_segs; ++s) {
        putU32(out.data() + 12 + static_cast<std::size_t>(s) * 4,
               static_cast<std::uint32_t>(seg_bytes[s]));
        seg_start[s + 1] = seg_start[s] + seg_bytes[s];
    }

    // Pass 2: encode each segment into its slice.
    forEachItem(num_segs, outer, [&](std::uint64_t s) {
        const auto [a, b] = seg_span(s);
        encodeSegment(data + a, b - a, warp, inner,
                      out.data() + seg_start[s]);
    });
}

template <typename Fp>
CompressedBlock
compressImpl(const Fp *data, std::uint64_t count, int warp,
             int segments)
{
    CompressedBlock block;
    compressIntoImpl(data, count, warp, segments, block);
    return block;
}

template <typename Fp>
void
decompressImpl(const CompressedBlock &block, Fp *out, int warp,
               int segments)
{
    const auto &in = block.bytes;
    std::size_t pos = 0;
    auto get_u32 = [&in, &pos]() {
        std::uint32_t v = 0;
        for (int b = 0; b < 4; ++b)
            v |= static_cast<std::uint32_t>(in.at(pos++)) << (8 * b);
        return v;
    };
    auto get_u64 = [&in, &pos]() {
        std::uint64_t v = 0;
        for (int b = 0; b < 8; ++b)
            v |= static_cast<std::uint64_t>(in.at(pos++)) << (8 * b);
        return v;
    };

    const std::uint64_t count = get_u64();
    if (count != block.numDoubles)
        QGPU_PANIC("GFC stream count ", count, " != block count ",
                   block.numDoubles);
    const std::uint32_t num_segs = get_u32();
    std::vector<std::uint32_t> seg_len(num_segs);
    for (auto &len : seg_len)
        len = get_u32();

    const std::uint64_t per =
        bits::ceilDiv(count, static_cast<std::uint64_t>(segments));
    std::vector<std::uint64_t> seg_start(num_segs + 1, pos);
    for (std::uint32_t s = 0; s < num_segs; ++s)
        seg_start[s + 1] = seg_start[s] + seg_len[s];
    if (num_segs > 0 && seg_start[num_segs] > in.size())
        QGPU_PANIC("GFC stream truncated: segments need ",
                   seg_start[num_segs], " bytes, have ", in.size());

    const int threads = blockThreads(count);
    const int outer = num_segs > 1 ? threads : 1;
    const int inner = num_segs > 1 ? 1 : threads;
    forEachItem(num_segs, outer, [&](std::uint64_t s) {
        const std::uint64_t a = s * per;
        const std::uint64_t b = std::min(count, a + per);
        decodeSegment(in.data() + seg_start[s], seg_len[s], b - a, warp,
                      inner, out + a);
    });
}

template <typename Fp>
std::uint64_t
compressedSizeImpl(const Fp *data, std::uint64_t count, int warp,
                   int segments)
{
    const std::uint64_t per =
        bits::ceilDiv(count, static_cast<std::uint64_t>(segments));
    const int num_segs =
        per == 0 ? 0 : static_cast<int>(bits::ceilDiv(count, per));

    // Residuals are pure functions of (element, element - warp), and
    // byte counts add associatively, so the size splits freely over
    // the pool regardless of segment boundaries.
    std::atomic<std::uint64_t> payload{0};
    const int threads = blockThreads(count);
    const int outer = num_segs > 1 ? threads : 1;
    forEachItem(num_segs, outer, [&](std::uint64_t s) {
        const std::uint64_t a = s * per;
        const std::uint64_t b = std::min(count, a + per);
        if (num_segs > 1) {
            payload.fetch_add(
                payloadBytesRange(data + a, std::uint64_t{0}, b - a,
                                  warp),
                std::memory_order_relaxed);
        } else {
            parallelFor(
                a, b, threads,
                [&](std::uint64_t l, std::uint64_t h) {
                    payload.fetch_add(
                        payloadBytesRange(data, l, h, warp),
                        std::memory_order_relaxed);
                },
                codecGrain());
        }
    });

    std::uint64_t total = 8 + 4 + 4ull * num_segs;
    for (int s = 0; s < num_segs; ++s) {
        const std::uint64_t lo = static_cast<std::uint64_t>(s) * per;
        const std::uint64_t hi = std::min(count, lo + per);
        total += (hi - lo + 1) / 2; // nibbles
    }
    return total + payload.load();
}

} // namespace

GfcCodec::GfcCodec(int warp_size, int segments)
    : warpSize_(warp_size), segments_(segments)
{
    if (warp_size < 1 || segments < 1)
        QGPU_FATAL("invalid GFC configuration: warp ", warp_size,
                   ", segments ", segments);
}

CompressedBlock
GfcCodec::compress(const double *data, std::uint64_t count) const
{
    return compressImpl(data, count, warpSize_, segments_);
}

CompressedBlock
GfcCodec::compressAmps(const Amp *data, std::uint64_t count) const
{
    static_assert(sizeof(Amp) == 2 * sizeof(double));
    return compress(reinterpret_cast<const double *>(data), 2 * count);
}

CompressedBlock
GfcCodec::compressF32(const float *data, std::uint64_t count) const
{
    return compressImpl(data, count, warpSize_, segments_);
}

CompressedBlock
GfcCodec::compressAmpsF32(const Amp *data, std::uint64_t count) const
{
    // Narrow the (already fp32-quantized) components into a float
    // scratch and compress that: the stream then models exactly what
    // an fp32-lane chunk ships over the wire.
    const double *raw = reinterpret_cast<const double *>(data);
    const std::uint64_t n = 2 * count;
    std::vector<float> narrow(n);
    parallelFor(
        0, n, simThreads(),
        [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i)
                narrow[i] = static_cast<float>(raw[i]);
        },
        codecGrain());
    return compressF32(narrow.data(), n);
}

void
GfcCodec::compressInto(const double *data, std::uint64_t count,
                       CompressedBlock &out) const
{
    compressIntoImpl(data, count, warpSize_, segments_, out);
}

void
GfcCodec::compressAmpsInto(const Amp *data, std::uint64_t count,
                           CompressedBlock &out) const
{
    static_assert(sizeof(Amp) == 2 * sizeof(double));
    compressInto(reinterpret_cast<const double *>(data), 2 * count,
                 out);
}

void
GfcCodec::compressF32Into(const float *data, std::uint64_t count,
                          CompressedBlock &out) const
{
    compressIntoImpl(data, count, warpSize_, segments_, out);
}

void
GfcCodec::decompress(const CompressedBlock &block, double *out) const
{
    if (block.f32)
        QGPU_PANIC("f32-lane GFC block decompressed as f64");
    decompressImpl(block, out, warpSize_, segments_);
}

void
GfcCodec::decompressAmps(const CompressedBlock &block, Amp *out) const
{
    decompress(block, reinterpret_cast<double *>(out));
}

void
GfcCodec::decompressF32(const CompressedBlock &block, float *out) const
{
    if (!block.f32)
        QGPU_PANIC("f64 GFC block decompressed as f32 lane");
    decompressImpl(block, out, warpSize_, segments_);
}

void
GfcCodec::decompressAmpsF32(const CompressedBlock &block,
                            Amp *out) const
{
    // Decode the floats into the front half of the output, then widen
    // back to front in place: double i overwrites floats 2i and 2i+1,
    // which are read before it is written, so no scratch is needed.
    // Widening float -> double is exact, so the reconstructed Amp
    // components equal the quantized values that were compressed.
    auto *bytes = reinterpret_cast<unsigned char *>(out);
    decompressF32(block, reinterpret_cast<float *>(out));
    for (std::uint64_t i = block.numDoubles; i-- > 0;) {
        float f;
        std::memcpy(&f, bytes + i * sizeof(float), sizeof f);
        const double d = f;
        std::memcpy(bytes + i * sizeof(double), &d, sizeof d);
    }
}

std::uint64_t
GfcCodec::headerBytes(std::uint64_t count) const
{
    return headerBytesFor(count, segments_);
}

std::uint64_t
GfcCodec::compressedPayloadSize(const double *data,
                                std::uint64_t count) const
{
    return compressedSize(data, count) - headerBytes(count);
}

std::uint64_t
GfcCodec::compressedPayloadSizeF32(const float *data,
                                   std::uint64_t count) const
{
    return compressedSizeF32(data, count) - headerBytes(count);
}

std::uint64_t
GfcCodec::compressedSize(const double *data, std::uint64_t count) const
{
    return compressedSizeImpl(data, count, warpSize_, segments_);
}

std::uint64_t
GfcCodec::compressedSizeF32(const float *data,
                            std::uint64_t count) const
{
    return compressedSizeImpl(data, count, warpSize_, segments_);
}

std::vector<CompressedBlock>
compressBatch(const GfcCodec &codec,
              const std::vector<DoubleRun> &runs)
{
    std::vector<CompressedBlock> blocks(runs.size());
    parallelFor(
        0, runs.size(), simThreads(),
        [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i)
                blocks[i] = codec.compress(runs[i].data,
                                           runs[i].count);
        },
        1);
    return blocks;
}

void
decompressBatch(
    const GfcCodec &codec,
    const std::vector<std::pair<const CompressedBlock *, double *>>
        &items)
{
    parallelFor(
        0, items.size(), simThreads(),
        [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i)
                codec.decompress(*items[i].first, items[i].second);
        },
        1);
}

} // namespace qgpu

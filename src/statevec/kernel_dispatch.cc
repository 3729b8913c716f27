#include "statevec/kernel_dispatch.hh"

#include <algorithm>
#include <atomic>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "statevec/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)
#define QGPU_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define QGPU_AVX2_KERNELS 0
#endif

namespace qgpu
{

namespace
{

/**
 * Complex multiply on components. For finite operands this is exactly
 * what std::complex operator* computes (the NaN-recovery fixup of
 * __muldc3 never fires), so kernels built from cmul stay bit-identical
 * to the generic path while avoiding its per-multiply branch.
 */
inline Amp
cmul(const Amp &a, const Amp &b)
{
    return Amp{a.real() * b.real() - a.imag() * b.imag(),
               a.real() * b.imag() + a.imag() * b.real()};
}

// Written from test/bench/engine setup code; read in makeKernelSpec,
// which runs outside the parallel kernel loops. Atomic (relaxed)
// because the service layer runs several engines concurrently:
// ExecutionEngine::run only touches the tier when it actually has to
// flip it, but a job opting in while another run is in flight must
// not be a data race. Interleaved runs that NEED different tiers are
// still a logical conflict — the service admits only jobs matching
// its process-wide tier (see service/scheduler.hh).
std::atomic<KernelTier> g_kernel_tier{KernelTier::Exact};

/**
 * The exact kernels' instruction set, detected from the CPU once per
 * process; ScopedScalarKernels swaps it for its scope. Kernels read
 * it once per call.
 */
std::atomic<KernelIsa> &
kernelIsaSlot()
{
    static std::atomic<KernelIsa> isa{[] {
#if QGPU_AVX2_KERNELS
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2"))
            return KernelIsa::Avx2;
#endif
        return KernelIsa::Scalar;
    }()};
    return isa;
}

inline bool
avx2Kernels()
{
    return kernelIsaSlot().load(std::memory_order_relaxed) ==
           KernelIsa::Avx2;
}

} // namespace

KernelIsa
kernelIsa()
{
    return kernelIsaSlot().load(std::memory_order_relaxed);
}

ScopedScalarKernels::ScopedScalarKernels() : prev_(kernelIsa())
{
    kernelIsaSlot().store(KernelIsa::Scalar, std::memory_order_relaxed);
}

ScopedScalarKernels::~ScopedScalarKernels()
{
    kernelIsaSlot().store(prev_, std::memory_order_relaxed);
}

KernelTier
kernelTier()
{
    return g_kernel_tier.load(std::memory_order_relaxed);
}

void
setKernelTier(KernelTier tier)
{
    g_kernel_tier.store(tier, std::memory_order_relaxed);
}

const char *
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::Diag1q: return "diag1q";
      case KernelKind::Diag2q: return "diag2q";
      case KernelKind::DiagK: return "diagk";
      case KernelKind::Perm1q: return "perm1q";
      case KernelKind::Ctrl1q: return "ctrl1q";
      case KernelKind::Dense1q: return "dense1q";
      case KernelKind::Dense2q: return "dense2q";
      case KernelKind::DenseK: return "densek";
    }
    return "?";
}

namespace kern
{

namespace
{

/**
 * Stride-1 primitives the kernels below are built from, as portable
 * scalar loops. Each is built once per kernel call from the gate's
 * coefficients. They are the whole kernel on CPUs without AVX2 (or
 * under ScopedScalarKernels) and finish a run's odd last amplitude on
 * CPUs with it.
 */
struct ScalarOps
{
    /** Multiplies a run of amplitudes by one constant. */
    struct Scale
    {
        Amp f;

        explicit Scale(Amp c) : f(c) {}

        /** a[j] *= f for j in [0, n). */
        void
        run(Amp *a, Index n) const
        {
            for (Index j = 0; j < n; ++j)
                a[j] = cmul(a[j], f);
        }
    };

    /** Multiplies even amplitudes by f0 and odd ones by f1. */
    struct Alternate
    {
        Amp f0, f1;

        Alternate(Amp c0, Amp c1) : f0(c0), f1(c1) {}

        /** a[2p] *= f0 and a[2p + 1] *= f1 for p in [0, n). */
        void
        pairs(Amp *a, Index n) const
        {
            for (Index p = 0; p < n; ++p) {
                a[2 * p] = cmul(a[2 * p], f0);
                a[2 * p + 1] = cmul(a[2 * p + 1], f1);
            }
        }
    };

    /** A row-major 2x2 matrix applied to amplitude pairs. */
    struct Mat2
    {
        Amp m00, m01, m10, m11;

        explicit Mat2(const Amp *m)
            : m00(m[0]), m01(m[1]), m10(m[2]), m11(m[3])
        {
        }

        /** (lo[j], hi[j]) <- m (lo[j], hi[j]) for j in [0, n). */
        void
        runs(Amp *lo, Amp *hi, Index n) const
        {
            for (Index j = 0; j < n; ++j) {
                const Amp a0 = lo[j], a1 = hi[j];
                lo[j] = cmul(m00, a0) + cmul(m01, a1);
                hi[j] = cmul(m10, a0) + cmul(m11, a1);
            }
        }

        /** The same over adjacent pairs (a[2p], a[2p + 1]). */
        void
        pairs(Amp *a, Index n) const
        {
            for (Index p = 0; p < n; ++p)
                runs(a + 2 * p, a + 2 * p + 1, 1);
        }
    };

    /**
     * An anti-diagonal 2x2 matrix: a0' = m01 a1, a1' = m10 a0. Not
     * Mat2 with zero entries: 0 * a0 + m01 * a1 turns a -0 product
     * into +0.
     */
    struct Swap
    {
        Amp m01, m10;

        Swap(Amp c01, Amp c10) : m01(c01), m10(c10) {}

        void
        runs(Amp *lo, Amp *hi, Index n) const
        {
            for (Index j = 0; j < n; ++j) {
                const Amp a0 = lo[j], a1 = hi[j];
                lo[j] = cmul(m01, a1);
                hi[j] = cmul(m10, a0);
            }
        }

        void
        pairs(Amp *a, Index n) const
        {
            for (Index p = 0; p < n; ++p)
                runs(a + 2 * p, a + 2 * p + 1, 1);
        }
    };
};

#if QGPU_AVX2_KERNELS

#define QGPU_AVX2 __attribute__((target("avx2")))

/**
 * A complex coefficient per 128-bit lane (one amplitude each), held
 * as real and imaginary broadcasts.
 */
struct Coef
{
    __m256d re, im;
};

QGPU_AVX2 inline Coef
coef(Amp lo, Amp hi)
{
    return {_mm256_setr_pd(lo.real(), lo.real(), hi.real(), hi.real()),
            _mm256_setr_pd(lo.imag(), lo.imag(), hi.imag(), hi.imag())};
}

QGPU_AVX2 inline Coef
coef(Amp c)
{
    return coef(c, c);
}

/**
 * cmul(c, a) on two amplitudes: [c.re a.re - c.im a.im,
 * c.re a.im + c.im a.re] per lane. These are cmul's four products,
 * each rounded once, and its one subtraction and one addition: the
 * result is bit-identical to cmul(c, a) and, since addition
 * commutes, to cmul(a, c). There is no FMA to fuse a rounding away.
 */
QGPU_AVX2 inline __m256d
vmul(const Coef &c, __m256d a)
{
    return _mm256_addsub_pd(_mm256_mul_pd(c.re, a),
                            _mm256_mul_pd(c.im, _mm256_permute_pd(a, 0x5)));
}

QGPU_AVX2 inline __m256d
load2(const Amp *p)
{
    return _mm256_loadu_pd(reinterpret_cast<const double *>(p));
}

QGPU_AVX2 inline void
store2(Amp *p, __m256d v)
{
    _mm256_storeu_pd(reinterpret_cast<double *>(p), v);
}

/** [a0, a1] -> [a1, a0]: swap the two amplitudes of a vector. */
QGPU_AVX2 inline __m256d
swapAmps(__m256d v)
{
    return _mm256_permute2f128_pd(v, v, 0x1);
}

/**
 * ScalarOps, two amplitudes per AVX2 vector. Per amplitude each
 * computes exactly what the scalar loop does (see vmul); a run's odd
 * last amplitude goes through the scalar loop.
 */
struct Avx2Ops
{
    struct Scale
    {
        ScalarOps::Scale scalar;
        Coef c;

        QGPU_AVX2 explicit Scale(Amp f) : scalar(f), c(coef(f)) {}

        QGPU_AVX2 void
        run(Amp *a, Index n) const
        {
            Index j = 0;
            for (; j + 2 <= n; j += 2)
                store2(a + j, vmul(c, load2(a + j)));
            scalar.run(a + j, n - j);
        }
    };

    struct Alternate
    {
        Amp f0, f1;
        Coef c;

        QGPU_AVX2 Alternate(Amp c0, Amp c1)
            : f0(c0), f1(c1), c(coef(c0, c1))
        {
        }

        QGPU_AVX2 void
        pairs(Amp *a, Index n) const
        {
            for (Index p = 0; p < n; ++p)
                store2(a + 2 * p, vmul(c, load2(a + 2 * p)));
        }
    };

    struct Mat2
    {
        ScalarOps::Mat2 scalar;
        Coef c00, c01, c10, c11;
        /** Per-pair rows for adjacent pairs: [m00, m11], [m01, m10]. */
        Coef diag, anti;

        QGPU_AVX2 explicit Mat2(const Amp *m)
            : scalar(m), c00(coef(m[0])), c01(coef(m[1])),
              c10(coef(m[2])), c11(coef(m[3])), diag(coef(m[0], m[3])),
              anti(coef(m[1], m[2]))
        {
        }

        QGPU_AVX2 void
        runs(Amp *lo, Amp *hi, Index n) const
        {
            Index j = 0;
            for (; j + 2 <= n; j += 2) {
                const __m256d a0 = load2(lo + j), a1 = load2(hi + j);
                store2(lo + j,
                       _mm256_add_pd(vmul(c00, a0), vmul(c01, a1)));
                store2(hi + j,
                       _mm256_add_pd(vmul(c10, a0), vmul(c11, a1)));
            }
            scalar.runs(lo + j, hi + j, n - j);
        }

        /** Pair [a0, a1] -> [m00 a0 + m01 a1, m11 a1 + m10 a0]; the
         *  second sum only commutes the scalar loop's addends. */
        QGPU_AVX2 void
        pairs(Amp *a, Index n) const
        {
            for (Index p = 0; p < n; ++p) {
                const __m256d v = load2(a + 2 * p);
                store2(a + 2 * p, _mm256_add_pd(vmul(diag, v),
                                                vmul(anti, swapAmps(v))));
            }
        }
    };

    struct Swap
    {
        ScalarOps::Swap scalar;
        Coef c01, c10, anti;

        QGPU_AVX2 Swap(Amp m01, Amp m10)
            : scalar(m01, m10), c01(coef(m01)), c10(coef(m10)),
              anti(coef(m01, m10))
        {
        }

        QGPU_AVX2 void
        runs(Amp *lo, Amp *hi, Index n) const
        {
            Index j = 0;
            for (; j + 2 <= n; j += 2) {
                const __m256d a0 = load2(lo + j), a1 = load2(hi + j);
                store2(lo + j, vmul(c01, a1));
                store2(hi + j, vmul(c10, a0));
            }
            scalar.runs(lo + j, hi + j, n - j);
        }

        QGPU_AVX2 void
        pairs(Amp *a, Index n) const
        {
            for (Index p = 0; p < n; ++p)
                store2(a + 2 * p, vmul(anti, swapAmps(load2(a + 2 * p))));
        }
    };
};

#else

// No AVX2 on this architecture: avx2Kernels() is false and these
// names compile to (unreached) scalar copies.
#define QGPU_AVX2
using Avx2Ops = ScalarOps;

#endif // QGPU_AVX2_KERNELS

/*
 * The kernels, written once over a primitive set: they split the
 * work-item range into the stride-1 runs the primitives take.
 * always_inline, so each primitive set's loops are inlined into the
 * entry point compiled for its instruction set.
 */

/** Length of the run starting at @p i: to the end of its aligned
 *  2^bits block or to @p end, whichever comes first. */
inline Index
runLength(Index i, Index end, int bits)
{
    return std::min(end, (i | bits::lowMask(bits)) + 1) - i;
}

/** Amplitudes [begin, end) times f0 at even and f1 at odd indices. */
template <typename Alternate>
[[gnu::always_inline]] inline void
alternate(Amp *data, const Alternate &alt, Index begin, Index end)
{
    Index i = begin;
    if (i & 1) {
        data[i] = cmul(data[i], alt.f1);
        ++i;
    }
    const Index pairs = (end - i) / 2;
    alt.pairs(data + i, pairs);
    i += 2 * pairs;
    if (i < end)
        data[i] = cmul(data[i], alt.f0);
}

template <typename Ops>
[[gnu::always_inline]] inline void
scaleImpl(Amp *data, Amp f, Index begin, Index end)
{
    typename Ops::Scale(f).run(data + begin, end - begin);
}

template <typename Ops>
[[gnu::always_inline]] inline void
diag1Impl(Amp *data, int t, Amp d0, Amp d1, Index begin, Index end)
{
    if (t == 0) {
        alternate(data, typename Ops::Alternate(d0, d1), begin, end);
        return;
    }
    // Within a run of 2^t amplitudes the selector bit is constant:
    // multiply each run by one constant.
    const typename Ops::Scale s0(d0), s1(d1);
    for (Index i = begin, n; i < end; i += n) {
        n = runLength(i, end, t);
        (((i >> t) & 1) ? s1 : s0).run(data + i, n);
    }
}

template <typename Ops>
[[gnu::always_inline]] inline void
diag2Impl(Amp *data, int t_lo, int t_hi, const Amp *lut, Index begin,
          Index end)
{
    if (t_lo == 0) {
        // Within a run of 2^t_hi amplitudes the high selector bit is
        // constant and the low one alternates.
        const typename Ops::Alternate alt[2] = {{lut[0], lut[1]},
                                                {lut[2], lut[3]}};
        for (Index i = begin, n; i < end; i += n) {
            n = runLength(i, end, t_hi);
            alternate(data, alt[(i >> t_hi) & 1], i, i + n);
        }
        return;
    }
    const typename Ops::Scale s[4] = {typename Ops::Scale(lut[0]),
                                      typename Ops::Scale(lut[1]),
                                      typename Ops::Scale(lut[2]),
                                      typename Ops::Scale(lut[3])};
    for (Index i = begin, n; i < end; i += n) {
        n = runLength(i, end, t_lo);
        s[((i >> t_lo) & 1) | (((i >> t_hi) & 1) << 1)].run(data + i, n);
    }
}

/**
 * Pair index p = (block << t) | j: the |0> element sits at
 * (block << (t+1)) + j, its partner one stride of 2^t above, and
 * consecutive j form a stride-1 run. @p op is a Mat2 or a Swap; at
 * t == 0 the pairs are adjacent and the whole range is one run of
 * pairs.
 */
template <typename PairOp>
[[gnu::always_inline]] inline void
pairRuns(Amp *data, int t, const PairOp &op, Index begin, Index end)
{
    if (t == 0) {
        op.pairs(data + 2 * begin, end - begin);
        return;
    }
    const Index stride = Index{1} << t;
    for (Index p = begin, n; p < end; p += n) {
        n = runLength(p, end, t);
        Amp *lo = data + ((p >> t) << (t + 1)) + (p & (stride - 1));
        op.runs(lo, lo + stride, n);
    }
}

template <typename Ops>
[[gnu::always_inline]] inline void
ctrl1Impl(Amp *data, int t, const std::vector<int> &fixed_sorted,
          Index cmask, const Amp *m, Index begin, Index end)
{
    const Index tbit = Index{1} << t;
    const int low = fixed_sorted.front();
    if (low == 0 && t != 0) {
        // A control on bit 0: consecutive pairs sit two amplitudes
        // apart, so there is no stride-1 run.
        const ScalarOps::Mat2 mat(m);
        for (Index w = begin; w < end; ++w) {
            Amp *lo = data + (bits::insertZeroBits(w, fixed_sorted) |
                              cmask);
            mat.runs(lo, lo + tbit, 1);
        }
        return;
    }
    // Work bits below the lowest fixed bit pass through insertZeroBits
    // unchanged, so they index a stride-1 run of pairs. With the
    // target on bit 0 the pairs are adjacent, and the work bits below
    // the next fixed bit index a run of them.
    const typename Ops::Mat2 mat(m);
    const int run_bits = low == 0 ? fixed_sorted[1] - 1 : low;
    for (Index w = begin, n; w < end; w += n) {
        n = runLength(w, end, run_bits);
        Amp *lo =
            data + (bits::insertZeroBits(w, fixed_sorted) | cmask);
        if (low == 0)
            mat.pairs(lo, n);
        else
            mat.runs(lo, lo + tbit, n);
    }
}

QGPU_AVX2 void
scaleAvx2(Amp *data, Amp f, Index begin, Index end)
{
    scaleImpl<Avx2Ops>(data, f, begin, end);
}

QGPU_AVX2 void
diag1Avx2(Amp *data, int t, Amp d0, Amp d1, Index begin, Index end)
{
    diag1Impl<Avx2Ops>(data, t, d0, d1, begin, end);
}

QGPU_AVX2 void
diag2Avx2(Amp *data, int t_lo, int t_hi, const Amp *lut, Index begin,
          Index end)
{
    diag2Impl<Avx2Ops>(data, t_lo, t_hi, lut, begin, end);
}

QGPU_AVX2 void
dense1Avx2(Amp *data, int t, const Amp *m, Index begin, Index end)
{
    pairRuns(data, t, Avx2Ops::Mat2(m), begin, end);
}

QGPU_AVX2 void
perm1Avx2(Amp *data, int t, Amp m01, Amp m10, Index begin, Index end)
{
    pairRuns(data, t, Avx2Ops::Swap(m01, m10), begin, end);
}

QGPU_AVX2 void
ctrl1Avx2(Amp *data, int t, const std::vector<int> &fixed_sorted,
          Index cmask, const Amp *m, Index begin, Index end)
{
    ctrl1Impl<Avx2Ops>(data, t, fixed_sorted, cmask, m, begin, end);
}

} // namespace

void
scale(Amp *data, Amp f, Index begin, Index end)
{
    if (avx2Kernels())
        return scaleAvx2(data, f, begin, end);
    scaleImpl<ScalarOps>(data, f, begin, end);
}

void
diag1(Amp *data, int t, Amp d0, Amp d1, Index begin, Index end)
{
    if (avx2Kernels())
        return diag1Avx2(data, t, d0, d1, begin, end);
    diag1Impl<ScalarOps>(data, t, d0, d1, begin, end);
}

void
diag2(Amp *data, int t_lo, int t_hi, const Amp *lut, Index begin,
      Index end)
{
    if (avx2Kernels())
        return diag2Avx2(data, t_lo, t_hi, lut, begin, end);
    diag2Impl<ScalarOps>(data, t_lo, t_hi, lut, begin, end);
}

void
diagK(Amp *data, const std::vector<int> &qubits, const GateMatrix &m,
      Index begin, Index end)
{
    const int k = static_cast<int>(qubits.size());
    for (Index i = begin; i < end; ++i) {
        int sel = 0;
        for (int j = 0; j < k; ++j)
            sel |= static_cast<int>(bits::testBit(i, qubits[j])) << j;
        data[i] = cmul(data[i], m.at(sel, sel));
    }
}

void
dense1(Amp *data, int t, const Amp *m, Index begin, Index end)
{
    if (avx2Kernels())
        return dense1Avx2(data, t, m, begin, end);
    pairRuns(data, t, ScalarOps::Mat2(m), begin, end);
}

void
perm1(Amp *data, int t, Amp m01, Amp m10, Index begin, Index end)
{
    if (avx2Kernels())
        return perm1Avx2(data, t, m01, m10, begin, end);
    pairRuns(data, t, ScalarOps::Swap(m01, m10), begin, end);
}

void
ctrl1(Amp *data, int t, const std::vector<int> &fixed_sorted,
      Index cmask, const Amp *m, Index begin, Index end)
{
    if (avx2Kernels())
        return ctrl1Avx2(data, t, fixed_sorted, cmask, m, begin, end);
    ctrl1Impl<ScalarOps>(data, t, fixed_sorted, cmask, m, begin, end);
}

void
dense2(Amp *data, int q0, int q1, const Amp *m, Index begin,
       Index end)
{
    const int tl = std::min(q0, q1), th = std::max(q0, q1);
    const Index o0 = Index{1} << q0, o1 = Index{1} << q1;

    // Mirrors the generic applyK accumulation (zero-initialized sum,
    // columns ascending) so results stay bit-identical.
    auto update = [&](Amp *a) {
        const Amp in[4] = {a[0], a[o0], a[o1], a[o0 + o1]};
        Amp out[4];
        for (int r = 0; r < 4; ++r) {
            Amp sum{0, 0};
            for (int c = 0; c < 4; ++c)
                sum += cmul(m[4 * r + c], in[c]);
            out[r] = sum;
        }
        a[0] = out[0];
        a[o0] = out[1];
        a[o1] = out[2];
        a[o0 + o1] = out[3];
    };

    if (tl == 0) {
        for (Index g = begin; g < end; ++g)
            update(data +
                   bits::insertZeroBit(bits::insertZeroBit(g, tl),
                                       th));
        return;
    }
    const Index run = Index{1} << tl;
    Index g = begin;
    while (g < end) {
        const Index blk_end = std::min(end, (g | (run - 1)) + 1);
        Amp *base =
            data + bits::insertZeroBit(
                       bits::insertZeroBit(g & ~(run - 1), tl), th);
        Index j = g & (run - 1);
        for (; g < blk_end; ++g, ++j)
            update(base + j);
    }
}

} // namespace kern

KernelSpec
makeKernelSpec(const Gate &gate)
{
    KernelSpec s;
    s.tier = kernelTier();
    s.qubits = gate.qubits;
    const int k = gate.numQubits();

    if (gate.isDiagonal()) {
        const GateMatrix m = gate.matrix();
        if (k == 1) {
            s.kind = KernelKind::Diag1q;
            s.target = gate.qubits[0];
            s.m1[0] = m.at(0, 0);
            s.m1[1] = m.at(1, 1);
        } else if (k == 2) {
            s.kind = KernelKind::Diag2q;
            s.tLo = std::min(gate.qubits[0], gate.qubits[1]);
            s.tHi = std::max(gate.qubits[0], gate.qubits[1]);
            const int j_lo = gate.qubits[0] < gate.qubits[1] ? 0 : 1;
            for (int c = 0; c < 4; ++c) {
                const int sel = ((c & 1) << j_lo) |
                                (((c >> 1) & 1) << (1 - j_lo));
                s.lut[c] = m.at(sel, sel);
            }
        } else {
            s.kind = KernelKind::DiagK;
            s.matrix = m;
        }
        return s;
    }

    // Controlled kinds with a dense 1q target block: controls are the
    // leading qubits (gate.hh convention), the target the last one.
    int num_controls = 0;
    switch (gate.kind) {
      case GateKind::CX:
      case GateKind::CY:
        num_controls = 1;
        break;
      case GateKind::CCX:
        num_controls = 2;
        break;
      default:
        break;
    }
    if (num_controls > 0) {
        s.kind = KernelKind::Ctrl1q;
        s.target = gate.qubits[num_controls];
        s.fixedSorted = gate.qubits;
        std::sort(s.fixedSorted.begin(), s.fixedSorted.end());
        for (int c = 0; c < num_controls; ++c)
            s.ctrlMask |= Index{1} << gate.qubits[c];
        // The target block sits at the rows/columns whose control
        // bits (matrix bits 0..nc-1) are all ones.
        const GateMatrix m = gate.matrix();
        const int cm = static_cast<int>(bits::lowMask(num_controls));
        for (int r = 0; r < 2; ++r)
            for (int c = 0; c < 2; ++c)
                s.m1[r * 2 + c] = m.at((r << num_controls) | cm,
                                       (c << num_controls) | cm);
        return s;
    }

    if (k == 1) {
        const GateMatrix m = gate.matrix();
        s.target = gate.qubits[0];
        s.m1[0] = m.at(0, 0);
        s.m1[1] = m.at(0, 1);
        s.m1[2] = m.at(1, 0);
        s.m1[3] = m.at(1, 1);
        s.kind = gate.isPermutation() ? KernelKind::Perm1q
                                      : KernelKind::Dense1q;
        return s;
    }
    if (k == 2) {
        s.kind = KernelKind::Dense2q;
        s.tLo = std::min(gate.qubits[0], gate.qubits[1]);
        s.tHi = std::max(gate.qubits[0], gate.qubits[1]);
        s.matrix = gate.matrix();
        return s;
    }
    s.kind = KernelKind::DenseK;
    s.matrix = gate.matrix();
    return s;
}

Index
kernelWorkItems(const KernelSpec &spec, int num_qubits)
{
    switch (spec.kind) {
      case KernelKind::Diag1q:
      case KernelKind::Diag2q:
      case KernelKind::DiagK:
        return stateSize(num_qubits);
      case KernelKind::Perm1q:
      case KernelKind::Dense1q:
        return stateSize(num_qubits - 1);
      case KernelKind::Ctrl1q:
        return stateSize(num_qubits -
                         static_cast<int>(spec.fixedSorted.size()));
      case KernelKind::Dense2q:
        return stateSize(num_qubits - 2);
      case KernelKind::DenseK:
        return stateSize(num_qubits -
                         static_cast<int>(spec.qubits.size()));
    }
    QGPU_PANIC("unhandled kernel kind");
}

int
kernelItemWidth(const KernelSpec &spec)
{
    switch (spec.kind) {
      case KernelKind::Diag1q:
      case KernelKind::Diag2q:
      case KernelKind::DiagK:
        return 1;
      case KernelKind::Perm1q:
      case KernelKind::Dense1q:
      case KernelKind::Ctrl1q:
        return 2;
      case KernelKind::Dense2q:
        return 4;
      case KernelKind::DenseK:
        return 1 << spec.qubits.size();
    }
    QGPU_PANIC("unhandled kernel kind");
}

void
applyKernel(const KernelSpec &spec, Amp *data, int num_qubits,
            Index begin, Index end)
{
    end = std::min(end, kernelWorkItems(spec, num_qubits));
    if (begin >= end)
        return;
    if (spec.tier == KernelTier::Fast) {
        kernfast::applyKernelFast(spec, data, num_qubits, begin, end);
        return;
    }
    switch (spec.kind) {
      case KernelKind::Diag1q:
        kern::diag1(data, spec.target, spec.m1[0], spec.m1[1], begin,
                    end);
        return;
      case KernelKind::Diag2q:
        kern::diag2(data, spec.tLo, spec.tHi, spec.lut, begin, end);
        return;
      case KernelKind::DiagK:
        kern::diagK(data, spec.qubits, spec.matrix, begin, end);
        return;
      case KernelKind::Perm1q:
        kern::perm1(data, spec.target, spec.m1[1], spec.m1[2], begin,
                    end);
        return;
      case KernelKind::Ctrl1q:
        kern::ctrl1(data, spec.target, spec.fixedSorted,
                    spec.ctrlMask, spec.m1, begin, end);
        return;
      case KernelKind::Dense1q:
        kern::dense1(data, spec.target, spec.m1, begin, end);
        return;
      case KernelKind::Dense2q:
        kern::dense2(data, spec.qubits[0], spec.qubits[1],
                     spec.matrix.data().data(), begin, end);
        return;
      case KernelKind::DenseK:
        kernels::applyK([data](Index i) -> Amp & { return data[i]; },
                        num_qubits, spec.qubits, spec.matrix, begin,
                        end);
        return;
    }
    QGPU_PANIC("unhandled kernel kind");
}

void
recordKernelMetrics(KernelKind kind, Index amps)
{
    auto &mr = MetricsRegistry::global();
    const std::string base =
        std::string("kernel.") + kernelKindName(kind);
    mr.add(base + ".invocations");
    mr.add(base + ".amps", static_cast<double>(amps));
}

} // namespace qgpu

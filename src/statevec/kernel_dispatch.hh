/**
 * @file
 * Specialized, vectorization-friendly gate-kernel dispatch.
 *
 * Every gate is classified once into a KernelKind and carried as a
 * KernelSpec (small matrices copied out of the GateMatrix, targets
 * pre-sorted, control masks precomputed). Application then runs a
 * dedicated kernel over a contiguous Amp array with strided inner
 * loops the compiler can vectorize — stride-1 pair loops for low
 * targets, blocked two-level loops for high targets — instead of the
 * generic accessor-indirected dense matvec in kernels.hh.
 *
 * The hot kinds' stride-1 loops run as AVX2 on CPUs that have it
 * (kernelIsa(), chosen once per process) and as scalar loops
 * otherwise; both give the same bytes.
 *
 * kernels.hh remains the reference implementation; the differential
 * suite (tests/test_kernel_dispatch.cc) asserts every specialized
 * kernel is byte-identical to it, on both dispatch paths. All kernels
 * take a [begin, end) range in the kind's work-item space so parallel
 * callers can split freely; any split yields the same result as one
 * full-range call.
 *
 * Per-kind invocation/amplitude counters are published to
 * MetricsRegistry under "kernel.<kind>.invocations" and
 * "kernel.<kind>.amps" by the apply layers (once per gate, so the
 * hot loops never touch the registry mutex).
 */

#ifndef QGPU_STATEVEC_KERNEL_DISPATCH_HH
#define QGPU_STATEVEC_KERNEL_DISPATCH_HH

#include <vector>

#include "common/types.hh"
#include "qc/gate.hh"

namespace qgpu
{

/**
 * Kernel classes in dispatch order. Diagonal kinds touch each
 * amplitude once; Perm1q moves amplitude pairs without mixing;
 * Ctrl1q touches only the pairs whose control bits are all set;
 * the dense kinds run the full matvec at fixed, unrolled width.
 */
enum class KernelKind
{
    Diag1q,  ///< 1q diagonal (Z, S, T, RZ, P, diagonal 1q Custom)
    Diag2q,  ///< 2q diagonal (CZ, CP, CRZ, RZZ, diagonal 2q Custom)
    DiagK,   ///< k>=3 diagonal (CCZ, fused diagonal Custom)
    Perm1q,  ///< 1q anti-diagonal / X-like (X, Y)
    Ctrl1q,  ///< controlled 1q with dense target block (CX, CY, CCX)
    Dense1q, ///< dense 1q (H, SX, RX, RY, U, dense 1q Custom)
    Dense2q, ///< dense 2q (SWAP, RXX, RYY, dense 2q Custom)
    DenseK,  ///< dense k>=3 (CSWAP, fused dense Custom)
};

inline constexpr int numKernelKinds = 8;

/** Short lower-case kind mnemonic ("diag1q", "ctrl1q", ...). */
const char *kernelKindName(KernelKind kind);

/**
 * Execution tier a spec is lowered for. @c Exact runs the default
 * kernels, bit-identical (tolerance 0) to kernels.hh. @c Fast runs
 * the duplicated kernels in kernel_fast.cc, compiled with
 * -ffp-contract=fast and the host's FMA/AVX-512 instruction sets
 * (CMake option QGPU_FAST_MATH): same arithmetic, contracted
 * rounding, accuracy-bounded at 1e-12 against Exact by the
 * differential suites.
 */
enum class KernelTier
{
    Exact,
    Fast,
};

/**
 * Process-wide tier makeKernelSpec lowers new specs for. Defaults to
 * Exact; engines set it (scoped) from ExecOptions::fastMath, benches
 * and tests set it directly. Deliberately NOT read from the
 * environment here: QGPU_FAST_MATH=1 opts the ENGINES in (see
 * ExecOptions), while direct kernel users — including the tolerance-0
 * differential suites — stay exact unless they ask.
 */
KernelTier kernelTier();
void setKernelTier(KernelTier tier);

/**
 * True when kernel_fast.cc was compiled with the fast-math flag set
 * (QGPU_FAST_MATH=ON). When false the Fast tier still dispatches to
 * the duplicated kernels, which then compile under the default flags
 * and meet the 1e-12 contract trivially.
 */
bool fastMathCompiled();

/** RAII tier override for engines/benches: set on entry, restore. */
class ScopedKernelTier
{
  public:
    explicit ScopedKernelTier(KernelTier tier) : prev_(kernelTier())
    {
        setKernelTier(tier);
    }
    ~ScopedKernelTier() { setKernelTier(prev_); }
    ScopedKernelTier(const ScopedKernelTier &) = delete;
    ScopedKernelTier &operator=(const ScopedKernelTier &) = delete;

  private:
    KernelTier prev_;
};

/**
 * Instruction set the exact tier's stride-1 loops run on. It is
 * detected from the CPU once per process: AVX2 where the CPU has it,
 * the portable scalar loops otherwise. Both produce the same bits
 * (DESIGN.md "Kernel dispatch"), so it is not an option anywhere.
 * The fast tier and the scalar-only kinds (Dense2q, DiagK, DenseK)
 * ignore it.
 */
enum class KernelIsa
{
    Scalar,
    Avx2,
};

/** The instruction set the exact kernels dispatch to right now. */
KernelIsa kernelIsa();

/**
 * Test-only RAII override: the exact kernels run their scalar loops
 * while it lives, then the previous choice is restored. Lets the
 * differential suites compare both dispatch paths on one CPU.
 */
class ScopedScalarKernels
{
  public:
    ScopedScalarKernels();
    ~ScopedScalarKernels();
    ScopedScalarKernels(const ScopedScalarKernels &) = delete;
    ScopedScalarKernels &operator=(const ScopedScalarKernels &) = delete;

  private:
    KernelIsa prev_;
};

/**
 * A gate lowered to its kernel class: targets pre-sorted, control
 * mask precomputed, and the (small) matrix copied into inline
 * storage. Built once per gate with makeKernelSpec, then applied to
 * any number of chunks/ranges.
 */
struct KernelSpec
{
    KernelKind kind = KernelKind::DenseK;

    /** Gate qubits in matrix order (matrix index bit j <-> qubits[j]). */
    std::vector<int> qubits;

    /** Single target (1q kinds and Ctrl1q). */
    int target = -1;

    /** Sorted targets for Diag2q / Dense2q (tLo < tHi). */
    int tLo = -1, tHi = -1;

    /** Ctrl1q: controls+target ascending, and the control bit mask. */
    std::vector<int> fixedSorted;
    Index ctrlMask = 0;

    /**
     * 1q matrix storage: row-major 2x2 for Dense1q/Perm1q/Ctrl1q,
     * {d0, d1} diagonal entries for Diag1q.
     */
    Amp m1[4] = {};

    /** Diag2q lookup indexed by bit(tLo) | bit(tHi) << 1. */
    Amp lut[4] = {};

    /** Full matrix for Dense2q / DenseK / DiagK (empty otherwise). */
    GateMatrix matrix{0};

    /** Tier the spec was lowered for (kernelTier() at build time). */
    KernelTier tier = KernelTier::Exact;
};

/** Classify @p gate and lower it to a KernelSpec (once per gate). */
KernelSpec makeKernelSpec(const Gate &gate);

/**
 * Number of independent work items applyKernel iterates for this
 * spec on an n-qubit register: amplitudes for diagonal kinds, pairs
 * for 1q kinds, control-satisfying pairs for Ctrl1q, groups for the
 * dense kinds. Parallel callers split [0, this) into ranges.
 */
Index kernelWorkItems(const KernelSpec &spec, int num_qubits);

/** Amplitudes written per work item (1, 2, or the matvec width). */
int kernelItemWidth(const KernelSpec &spec);

/**
 * Apply the spec'd gate to the contiguous n-qubit register at
 * @p data, over work items [begin, end). Bit-identical to
 * kernels::applyGate on the same range for finite amplitudes.
 */
void applyKernel(const KernelSpec &spec, Amp *data, int num_qubits,
                 Index begin = 0, Index end = ~Index{0});

/**
 * Publish gate applications' per-kind counters:
 * kernel.<kind>.invocations += @p calls, kernel.<kind>.amps +=
 * @p amps. Callers pass the number of amplitudes actually written.
 * The counter names are built once per kind, not per call.
 */
void recordKernelMetrics(KernelKind kind, Index amps,
                         std::uint64_t calls = 1);

/**
 * Low-level contiguous kernels, exposed for the chunked diagonal
 * path (which folds chunk-global selector bits into the LUT before
 * calling) and for microbenchmarks. Ranges are in each kernel's own
 * work-item space, as in applyKernel.
 */
namespace kern
{

/** amp[i] *= f over amplitude indices [begin, end). */
void scale(Amp *data, Amp f, Index begin, Index end);

/** 1q diagonal: amp[i] *= d[bit(i, t)] over amplitudes [begin, end). */
void diag1(Amp *data, int t, Amp d0, Amp d1, Index begin, Index end);

/**
 * 2q diagonal over amplitudes [begin, end): amp[i] *=
 * lut[bit(i, t_lo) | bit(i, t_hi) << 1], with t_lo < t_hi.
 */
void diag2(Amp *data, int t_lo, int t_hi, const Amp *lut,
           Index begin, Index end);

/**
 * k-qubit diagonal over amplitudes [begin, end): the diagonal entry
 * is selected by the amplitude's bits at @p qubits (matrix order).
 */
void diagK(Amp *data, const std::vector<int> &qubits,
           const GateMatrix &m, Index begin, Index end);

/** Dense 1q over pair indices [begin, end); @p m row-major 2x2. */
void dense1(Amp *data, int t, const Amp *m, Index begin, Index end);

/** X-like 1q over pairs [begin, end): a0' = m01*a1, a1' = m10*a0. */
void perm1(Amp *data, int t, Amp m01, Amp m10, Index begin,
           Index end);

/**
 * Controlled dense 1q over control-satisfying pair indices
 * [begin, end): @p fixed_sorted lists controls+target ascending,
 * @p cmask is the control bit mask, @p m the 2x2 target block.
 */
void ctrl1(Amp *data, int t, const std::vector<int> &fixed_sorted,
           Index cmask, const Amp *m, Index begin, Index end);

/**
 * Dense 2q over group indices [begin, end); @p q0, @p q1 in matrix
 * order (matrix index bit 0 <-> q0), @p m row-major 4x4.
 */
void dense2(Amp *data, int q0, int q1, const Amp *m, Index begin,
            Index end);

} // namespace kern

/**
 * Fast-tier duplicates of the kern:: kernels plus the dense k-qubit
 * matvec, defined in kernel_fast.cc — a separate translation unit so
 * CMake can hand it -ffp-contract=fast and the native FMA/AVX-512
 * sets without touching the exact tier's code generation. Signatures
 * and work-item spaces match kern:: exactly; results are within
 * 1e-12 of the exact kernels (contracted rounding only).
 */
namespace kernfast
{

void scale(Amp *data, Amp f, Index begin, Index end);
void diag1(Amp *data, int t, Amp d0, Amp d1, Index begin, Index end);
void diag2(Amp *data, int t_lo, int t_hi, const Amp *lut,
           Index begin, Index end);
void diagK(Amp *data, const std::vector<int> &qubits,
           const GateMatrix &m, Index begin, Index end);
void dense1(Amp *data, int t, const Amp *m, Index begin, Index end);
void perm1(Amp *data, int t, Amp m01, Amp m10, Index begin,
           Index end);
void ctrl1(Amp *data, int t, const std::vector<int> &fixed_sorted,
           Index cmask, const Amp *m, Index begin, Index end);
void dense2(Amp *data, int q0, int q1, const Amp *m, Index begin,
            Index end);

/** Dense k>=3 matvec over group indices [begin, end). */
void denseK(Amp *data, int num_qubits,
            const std::vector<int> &qubits, const GateMatrix &m,
            Index begin, Index end);

/** Fast-tier dispatch, mirroring applyKernel's switch. */
void applyKernelFast(const KernelSpec &spec, Amp *data,
                     int num_qubits, Index begin, Index end);

} // namespace kernfast

} // namespace qgpu

#endif // QGPU_STATEVEC_KERNEL_DISPATCH_HH

/**
 * @file
 * Differential suite for the kernel-dispatch layer: every specialized
 * kernel must be byte-identical to the generic accessor-based
 * reference in statevec/kernels.hh, across gate kinds, every target
 * and control position, random matrices, chunk-local and cross-chunk
 * targets, and flat and chunked states. Each comparison runs on every
 * dispatch path of this CPU (the detected instruction set, then
 * forced scalar), and the paths must agree byte for byte on signed
 * zeros, subnormals and short misaligned ranges too. Also covers
 * classification, fused-diagonal detection, range-split determinism,
 * and the per-kind metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "qc/fusion.hh"
#include "statevec/apply.hh"
#include "statevec/kernel_dispatch.hh"
#include "statevec/kernels.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{
namespace
{

/** Deterministic non-trivial amplitudes (not normalized; irrelevant). */
std::vector<Amp>
randomAmps(int num_qubits, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Amp> amps(stateSize(num_qubits));
    for (Amp &a : amps)
        a = Amp{rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1};
    return amps;
}

/** Random dense k-qubit matrix (no unitarity needed for equivalence). */
std::vector<Amp>
randomMatrix(int k, std::uint64_t seed)
{
    Rng rng(seed);
    const int dim = 1 << k;
    std::vector<Amp> m(static_cast<std::size_t>(dim) * dim);
    for (Amp &e : m)
        e = Amp{rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1};
    return m;
}

/** Random diagonal k-qubit matrix (exact zero off-diagonals). */
std::vector<Amp>
randomDiagMatrix(int k, std::uint64_t seed)
{
    Rng rng(seed);
    const int dim = 1 << k;
    std::vector<Amp> m(static_cast<std::size_t>(dim) * dim,
                       Amp{0, 0});
    for (int i = 0; i < dim; ++i)
        m[static_cast<std::size_t>(i) * dim + i] =
            Amp{rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1};
    return m;
}

/**
 * Amplitudes whose components mix +0, -0, +-1, subnormals and random
 * values: byte comparison tells -0 from +0, where |a - b| does not.
 * All finite, and small enough that no product overflows.
 */
std::vector<Amp>
edgeAmps(int num_qubits, std::uint64_t seed)
{
    const double pool[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           -3e-310};
    constexpr std::size_t kPool = sizeof pool / sizeof pool[0];
    Rng rng(seed);
    const auto component = [&] {
        const std::uint64_t pick = rng.nextBelow(2 * kPool);
        return pick < kPool ? pool[pick] : rng.nextDouble() * 2 - 1;
    };
    std::vector<Amp> amps(stateSize(num_qubits));
    for (Amp &a : amps) {
        const double re = component();
        a = Amp{re, component()};
    }
    return amps;
}

/** Byte equality of two amplitude buffers, naming the first difference. */
::testing::AssertionResult
sameBytes(const std::vector<Amp> &got, const std::vector<Amp> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "sizes " << got.size() << " vs " << want.size();
    for (std::size_t i = 0; i < got.size(); ++i)
        if (std::memcmp(&got[i], &want[i], sizeof(Amp)) != 0)
            return ::testing::AssertionFailure()
                   << "amplitude " << i << ": " << got[i] << " vs "
                   << want[i];
    return ::testing::AssertionSuccess();
}

/**
 * Runs @p body on every exact-kernel dispatch path of this CPU: the
 * detected instruction set, then (when that is not already scalar)
 * forced scalar. Failures name the path.
 */
template <typename Body>
void
onEachIsa(Body &&body)
{
    {
        SCOPED_TRACE(kernelIsa() == KernelIsa::Avx2 ? "isa avx2"
                                                    : "isa scalar");
        body();
    }
    if (kernelIsa() == KernelIsa::Scalar)
        return;
    ScopedScalarKernels scalar;
    SCOPED_TRACE("isa scalar (forced)");
    body();
}

/**
 * Every kernel kind with its target and controls on every qubit of an
 * n-qubit register, bit 0 included.
 */
std::vector<Gate>
placementZoo(int n)
{
    std::vector<Gate> gates;
    for (int q = 0; q < n; ++q) {
        const std::uint64_t seed = 1000 + 100 * static_cast<unsigned>(q);
        // Diag1q, Perm1q, Dense1q
        gates.emplace_back(GateKind::T, std::vector<int>{q});
        gates.push_back(
            Gate::makeCustom({q}, randomDiagMatrix(1, seed)));
        gates.emplace_back(GateKind::X, std::vector<int>{q});
        gates.emplace_back(GateKind::Y, std::vector<int>{q});
        gates.push_back(Gate::makeCustom(
            {q}, {Amp{0, 0}, Amp{-0.28, 0.96}, Amp{0.6, -0.8},
                  Amp{0, 0}}));
        gates.emplace_back(GateKind::H, std::vector<int>{q});
        gates.push_back(Gate::makeCustom({q}, randomMatrix(1, seed + 1)));
        // DiagK and DenseK, rotated through every position.
        gates.emplace_back(GateKind::CCZ,
                           std::vector<int>{q, (q + 1) % n, (q + 3) % n});
        gates.push_back(Gate::makeCustom({(q + 2) % n, q, (q + 1) % n},
                                         randomMatrix(3, seed + 2)));
        for (int r = 0; r < n; ++r) {
            if (r == q)
                continue;
            const std::uint64_t pair_seed =
                seed + 10 + static_cast<unsigned>(r);
            // Diag2q, Ctrl1q (control q, target r), Dense2q
            gates.push_back(
                Gate::makeCustom({q, r}, randomDiagMatrix(2, pair_seed)));
            gates.emplace_back(GateKind::CX, std::vector<int>{q, r});
            gates.emplace_back(GateKind::CY, std::vector<int>{q, r});
            gates.push_back(
                Gate::makeCustom({q, r}, randomMatrix(2, pair_seed)));
            for (int t = 0; t < n; ++t)
                if (t != q && t != r)
                    gates.emplace_back(GateKind::CCX,
                                       std::vector<int>{q, r, t});
        }
    }
    return gates;
}

/**
 * The gates under test, covering every KernelKind with both builtin
 * and random Custom matrices. Targets are parameterized so the same
 * set runs with low (chunk-local) and high (cross-chunk) qubits.
 */
std::vector<Gate>
gateZoo(int lo0, int lo1, int hi0, int hi1)
{
    std::vector<Gate> gates;
    // Diag1q / Diag2q / DiagK
    gates.emplace_back(GateKind::T, std::vector<int>{lo0});
    gates.emplace_back(GateKind::RZ, std::vector<int>{hi0},
                       std::vector<double>{0.37});
    gates.emplace_back(GateKind::CP, std::vector<int>{lo0, hi0},
                       std::vector<double>{1.1});
    gates.emplace_back(GateKind::RZZ, std::vector<int>{lo1, lo0},
                       std::vector<double>{0.6});
    gates.emplace_back(GateKind::CCZ,
                       std::vector<int>{lo0, hi0, lo1});
    gates.push_back(Gate::makeCustom({lo1}, randomDiagMatrix(1, 11)));
    gates.push_back(
        Gate::makeCustom({hi0, lo0}, randomDiagMatrix(2, 12)));
    gates.push_back(
        Gate::makeCustom({lo0, lo1, hi1}, randomDiagMatrix(3, 13)));
    // Perm1q
    gates.emplace_back(GateKind::X, std::vector<int>{lo0});
    gates.emplace_back(GateKind::Y, std::vector<int>{hi1});
    {
        // Random anti-diagonal 1q Custom.
        std::vector<Amp> m = {Amp{0, 0}, Amp{0.6, -0.8},
                              Amp{-0.28, 0.96}, Amp{0, 0}};
        gates.push_back(Gate::makeCustom({lo1}, std::move(m)));
    }
    // Ctrl1q
    gates.emplace_back(GateKind::CX, std::vector<int>{lo0, hi0});
    gates.emplace_back(GateKind::CX, std::vector<int>{hi0, lo0});
    gates.emplace_back(GateKind::CY, std::vector<int>{lo1, lo0});
    gates.emplace_back(GateKind::CCX,
                       std::vector<int>{lo0, hi1, lo1});
    // Dense1q
    gates.emplace_back(GateKind::H, std::vector<int>{lo0});
    gates.emplace_back(GateKind::H, std::vector<int>{hi0});
    gates.emplace_back(GateKind::U, std::vector<int>{lo1},
                       std::vector<double>{0.3, 1.2, -0.7});
    gates.push_back(Gate::makeCustom({hi1}, randomMatrix(1, 21)));
    // Dense2q
    gates.emplace_back(GateKind::SWAP, std::vector<int>{lo0, hi0});
    gates.emplace_back(GateKind::RXX, std::vector<int>{hi0, lo1},
                       std::vector<double>{0.9});
    gates.push_back(
        Gate::makeCustom({lo1, lo0}, randomMatrix(2, 22)));
    gates.push_back(
        Gate::makeCustom({hi1, hi0}, randomMatrix(2, 23)));
    // DenseK
    gates.emplace_back(GateKind::CSWAP,
                       std::vector<int>{hi0, lo0, lo1});
    gates.push_back(
        Gate::makeCustom({lo0, hi0, lo1}, randomMatrix(3, 24)));
    gates.push_back(
        Gate::makeCustom({lo0, lo1, hi0, hi1}, randomMatrix(4, 25)));
    return gates;
}

TEST(KernelDispatch, ClassifiesBuiltinKinds)
{
    const auto kindOf = [](const Gate &g) {
        return makeKernelSpec(g).kind;
    };
    EXPECT_EQ(kindOf(Gate(GateKind::Z, {0})), KernelKind::Diag1q);
    EXPECT_EQ(kindOf(Gate(GateKind::RZ, {3}, {0.5})),
              KernelKind::Diag1q);
    EXPECT_EQ(kindOf(Gate(GateKind::CZ, {1, 4})), KernelKind::Diag2q);
    EXPECT_EQ(kindOf(Gate(GateKind::RZZ, {4, 1}, {0.2})),
              KernelKind::Diag2q);
    EXPECT_EQ(kindOf(Gate(GateKind::CCZ, {0, 2, 4})),
              KernelKind::DiagK);
    EXPECT_EQ(kindOf(Gate(GateKind::X, {2})), KernelKind::Perm1q);
    EXPECT_EQ(kindOf(Gate(GateKind::Y, {2})), KernelKind::Perm1q);
    EXPECT_EQ(kindOf(Gate(GateKind::CX, {0, 5})), KernelKind::Ctrl1q);
    EXPECT_EQ(kindOf(Gate(GateKind::CCX, {0, 1, 5})),
              KernelKind::Ctrl1q);
    EXPECT_EQ(kindOf(Gate(GateKind::H, {0})), KernelKind::Dense1q);
    EXPECT_EQ(kindOf(Gate(GateKind::SX, {1})), KernelKind::Dense1q);
    EXPECT_EQ(kindOf(Gate(GateKind::SWAP, {0, 3})),
              KernelKind::Dense2q);
    EXPECT_EQ(kindOf(Gate(GateKind::RXX, {2, 0}, {0.4})),
              KernelKind::Dense2q);
    EXPECT_EQ(kindOf(Gate(GateKind::CSWAP, {0, 1, 2})),
              KernelKind::DenseK);
}

TEST(KernelDispatch, ClassifiesCustomShapes)
{
    const Gate diag = Gate::makeCustom({2}, randomDiagMatrix(1, 1));
    EXPECT_TRUE(diag.isDiagonal());
    EXPECT_EQ(makeKernelSpec(diag).kind, KernelKind::Diag1q);

    std::vector<Amp> anti = {Amp{0, 0}, Amp{1, 0}, Amp{0, 1},
                             Amp{0, 0}};
    const Gate perm = Gate::makeCustom({2}, std::move(anti));
    EXPECT_FALSE(perm.isDiagonal());
    EXPECT_TRUE(perm.isPermutation());
    EXPECT_EQ(perm.shape(), GateShape::Permutation);
    EXPECT_EQ(makeKernelSpec(perm).kind, KernelKind::Perm1q);

    const Gate dense = Gate::makeCustom({2}, randomMatrix(1, 2));
    EXPECT_EQ(dense.shape(), GateShape::Dense);
    EXPECT_EQ(makeKernelSpec(dense).kind, KernelKind::Dense1q);
}

/** Specialized flat apply == generic reference, byte for byte. */
TEST(KernelDispatch, FlatMatchesGenericBitExact)
{
    const int n = 10;
    // lo targets below a typical chunk boundary, hi targets above;
    // for the flat register this just spreads strides.
    onEachIsa([&] {
        for (const Gate &gate : gateZoo(0, 2, 7, 9)) {
            std::vector<Amp> got = randomAmps(n, 42);
            std::vector<Amp> want = got;

            const KernelSpec spec = makeKernelSpec(gate);
            applyKernel(spec, got.data(), n);

            Amp *ref = want.data();
            kernels::applyGate(
                [ref](Index i) -> Amp & { return ref[i]; }, n, gate);

            EXPECT_TRUE(sameBytes(got, want))
                << gate.toString() << " (kind "
                << kernelKindName(spec.kind) << ")";
        }
    });
}

/**
 * Every kind on every target/control position, bit 0 included, ==
 * the generic reference byte for byte on each dispatch path.
 */
TEST(KernelDispatch, EveryPlacementMatchesGenericByteExact)
{
    const int n = 6;
    onEachIsa([&] {
        for (const Gate &gate : placementZoo(n)) {
            std::vector<Amp> got = randomAmps(n, 17);
            std::vector<Amp> want = got;
            applyKernel(makeKernelSpec(gate), got.data(), n);
            Amp *ref = want.data();
            kernels::applyGate(
                [ref](Index i) -> Amp & { return ref[i]; }, n, gate);
            EXPECT_TRUE(sameBytes(got, want)) << gate.toString();
        }
    });
}

/**
 * The vector and scalar loops agree byte for byte on signed zeros and
 * subnormals, over ranges that start and end off a vector boundary
 * and over runs of 1-3 work items (the vector remainders).
 */
TEST(KernelDispatch, IsaPathsAgreeOnEdgeValuesAndShortRanges)
{
    const int n = 7;
    const std::vector<Amp> init = edgeAmps(n, 2024);
    for (const Gate &gate : placementZoo(n)) {
        const KernelSpec spec = makeKernelSpec(gate);
        const Index items = kernelWorkItems(spec, n);
        for (const Index begin : {Index{0}, Index{1}, Index{2},
                                  Index{3}, Index{5}, items / 2 - 1}) {
            for (const Index len : {Index{1}, Index{2}, Index{3},
                                    Index{4}, Index{7}, items}) {
                const Index end = std::min(items, begin + len);
                if (begin >= end)
                    continue;
                std::vector<Amp> detected = init, scalar = init;
                applyKernel(spec, detected.data(), n, begin, end);
                {
                    ScopedScalarKernels force;
                    applyKernel(spec, scalar.data(), n, begin, end);
                }
                EXPECT_TRUE(sameBytes(detected, scalar))
                    << gate.toString() << " items [" << begin << ", "
                    << end << ")";
            }
        }
    }
}

/**
 * An X-like gate moves a -0 component: m01 * a1 with m01 = 1 keeps
 * the sign of a1's zero. A dense matvec with the zero entries
 * (0 * a0 + m01 * a1) would return +0.
 */
TEST(KernelDispatch, PermutationKeepsNegativeZero)
{
    onEachIsa([] {
        for (const int t : {0, 1, 2}) {
            std::vector<Amp> amps(stateSize(3), Amp{0.25, 0.5});
            const Index partner = Index{1} << t;
            amps[partner] = Amp{-0.0, 0.5};
            applyKernel(makeKernelSpec(Gate(GateKind::X, {t})),
                        amps.data(), 3);
            EXPECT_TRUE(std::signbit(amps[0].real())) << "target " << t;
            EXPECT_EQ(amps[0].imag(), 0.5) << "target " << t;
        }
    });
}

TEST(KernelDispatch, ScopedScalarKernelsRestoresTheDetectedIsa)
{
    const KernelIsa detected = kernelIsa();
    {
        ScopedScalarKernels scalar;
        EXPECT_EQ(kernelIsa(), KernelIsa::Scalar);
        {
            ScopedScalarKernels nested;
            EXPECT_EQ(kernelIsa(), KernelIsa::Scalar);
        }
        EXPECT_EQ(kernelIsa(), KernelIsa::Scalar);
    }
    EXPECT_EQ(kernelIsa(), detected);
}

/** Arbitrary work-item range splits compose to the full-range result. */
TEST(KernelDispatch, RangeSplitsComposeBitExact)
{
    const int n = 9;
    onEachIsa([&] {
        for (const Gate &gate : gateZoo(1, 3, 6, 8)) {
            const KernelSpec spec = makeKernelSpec(gate);
            const Index items = kernelWorkItems(spec, n);

            std::vector<Amp> got = randomAmps(n, 7);
            std::vector<Amp> want = got;
            applyKernel(spec, want.data(), n);

            // Deliberately misaligned split points.
            const Index cuts[] = {0, items / 3 + 1, items / 2 + 3,
                                  items};
            for (int s = 0; s + 1 < 4; ++s)
                applyKernel(spec, got.data(), n, cuts[s],
                            std::min(cuts[s + 1], items));

            EXPECT_TRUE(sameBytes(got, want)) << gate.toString();
        }
    });
}

/** Chunked apply (local and cross-chunk groups) == generic flat. */
TEST(KernelDispatch, ChunkedMatchesGenericBitExact)
{
    const int n = 10;
    onEachIsa([&] {
        for (int chunk_bits : {4, 6}) {
            // hi targets land above the chunk boundary (cross-chunk
            // for non-diagonal gates), lo targets below it.
            for (const Gate &gate :
                 gateZoo(0, chunk_bits - 1, chunk_bits, n - 1)) {
                const std::vector<Amp> init = randomAmps(n, 99);

                StateVector flat(n);
                flat.amplitudes() = init;
                ChunkedStateVector chunked(n, chunk_bits);
                chunked.fromFlat(flat);

                applyGateChunked(chunked, gate);

                std::vector<Amp> want = init;
                Amp *ref = want.data();
                kernels::applyGate(
                    [ref](Index i) -> Amp & { return ref[i]; }, n,
                    gate);

                EXPECT_TRUE(
                    sameBytes(chunked.toFlat().amplitudes(), want))
                    << gate.toString() << " chunk_bits=" << chunk_bits;
            }
        }
    });
}

/** applyGroup covers each group exactly once, matching the reference. */
TEST(KernelDispatch, GroupwiseMatchesGenericBitExact)
{
    const int n = 9, chunk_bits = 4;
    onEachIsa([&] {
        for (const Gate &gate : gateZoo(0, 3, 5, 8)) {
            const std::vector<Amp> init = randomAmps(n, 5);
            StateVector flat(n);
            flat.amplitudes() = init;
            ChunkedStateVector chunked(n, chunk_bits);
            chunked.fromFlat(flat);

            const GatePlan plan(gate, n, chunk_bits);
            for (Index g = 0; g < plan.numGroups(); ++g)
                applyGroup(chunked, gate, plan, g);

            std::vector<Amp> want = init;
            Amp *ref = want.data();
            kernels::applyGate(
                [ref](Index i) -> Amp & { return ref[i]; }, n, gate);
            EXPECT_TRUE(sameBytes(chunked.toFlat().amplitudes(), want))
                << gate.toString();
        }
    });
}

/** Threaded flat/chunked apply is bit-identical to serial. */
TEST(KernelDispatch, ThreadedApplyMatchesSerialBitExact)
{
    const int n = 10;
    onEachIsa([&] {
        for (const Gate &gate : gateZoo(0, 4, 7, 9)) {
            StateVector serial(n), threaded(n);
            serial.amplitudes() = randomAmps(n, 3);
            threaded.amplitudes() = serial.amplitudes();

            setSimThreads(1);
            serial.apply(gate);
            setSimThreads(4);
            threaded.apply(gate);
            setSimThreads(1);

            EXPECT_TRUE(
                sameBytes(serial.amplitudes(), threaded.amplitudes()))
                << gate.toString();
        }
    });
}

/** A run of diagonal gates fuses into a *diagonal* Custom gate. */
TEST(KernelDispatch, FusedDiagonalRunStaysDiagonal)
{
    Circuit c(4, "diag-run");
    c.add(Gate(GateKind::T, {0}));
    c.add(Gate(GateKind::CZ, {0, 2}));
    c.add(Gate(GateKind::RZ, {2}, {0.7}));
    c.add(Gate(GateKind::RZZ, {1, 2}, {0.3}));
    c.add(Gate(GateKind::S, {1}));

    const Circuit fused = fuseGates(c, 3);
    ASSERT_EQ(fused.numGates(), 1u);
    const Gate &g = fused.gates()[0];
    EXPECT_EQ(g.kind, GateKind::Custom);
    EXPECT_TRUE(g.isDiagonal());
    EXPECT_EQ(makeKernelSpec(g).kind, KernelKind::DiagK);

    // And the fused gate still computes the same state.
    const StateVector a = simulateReference(c);
    const StateVector b = simulateReference(fused);
    EXPECT_LT(a.maxAbsDiff(b), 1e-12);
}

/** Mixed runs stay dense; diagonal detection is not fooled. */
TEST(KernelDispatch, FusedMixedRunIsNotDiagonal)
{
    Circuit c(3, "mixed-run");
    c.add(Gate(GateKind::T, {0}));
    c.add(Gate(GateKind::H, {1}));
    c.add(Gate(GateKind::CZ, {0, 1}));

    const Circuit fused = fuseGates(c, 2);
    ASSERT_EQ(fused.numGates(), 1u);
    EXPECT_FALSE(fused.gates()[0].isDiagonal());

    const StateVector a = simulateReference(c);
    const StateVector b = simulateReference(fused);
    EXPECT_LT(a.maxAbsDiff(b), 1e-12);
}

TEST(KernelDispatch, PublishesPerKindMetrics)
{
    auto &mr = MetricsRegistry::global();
    mr.clear();

    StateVector flat(6);
    flat.apply(Gate(GateKind::H, {0}));
    flat.apply(Gate(GateKind::T, {1}));
    flat.apply(Gate(GateKind::CX, {0, 5}));

    ChunkedStateVector chunked(8, 4);
    applyGateChunked(chunked, Gate(GateKind::CZ, {1, 6}));
    applyGateChunked(chunked, Gate(GateKind::H, {7}));

    EXPECT_EQ(mr.counter("kernel.dense1q.invocations"), 2.0);
    EXPECT_EQ(mr.counter("kernel.dense1q.amps"),
              static_cast<double>(stateSize(6) + stateSize(8)));
    EXPECT_EQ(mr.counter("kernel.diag1q.invocations"), 1.0);
    EXPECT_EQ(mr.counter("kernel.ctrl1q.invocations"), 1.0);
    EXPECT_EQ(mr.counter("kernel.ctrl1q.amps"),
              static_cast<double>(stateSize(6) / 2));
    EXPECT_EQ(mr.counter("kernel.diag2q.invocations"), 1.0);
    EXPECT_EQ(mr.counter("kernel.diag2q.amps"),
              static_cast<double>(stateSize(8)));
    mr.clear();
}

} // namespace
} // namespace qgpu

/**
 * @file
 * Flat full state vector: the reference Schrödinger-style simulator all
 * engines are validated against.
 */

#ifndef QGPU_STATEVEC_STATE_VECTOR_HH
#define QGPU_STATEVEC_STATE_VECTOR_HH

#include <vector>

#include "common/types.hh"
#include "qc/circuit.hh"

namespace qgpu
{

/**
 * Dense 2^n-amplitude state vector with in-place gate application.
 */
class StateVector
{
  public:
    /** Initialize to |0...0>. */
    explicit StateVector(int num_qubits);

    /** Adopt @p amps (2^num_qubits amplitudes) without copying. */
    StateVector(int num_qubits, std::vector<Amp> &&amps);

    int numQubits() const { return numQubits_; }
    Index size() const { return static_cast<Index>(amps_.size()); }

    Amp &operator[](Index i) { return amps_[i]; }
    const Amp &operator[](Index i) const { return amps_[i]; }

    const std::vector<Amp> &amplitudes() const { return amps_; }
    std::vector<Amp> &amplitudes() { return amps_; }

    /** Apply one gate in place. */
    void apply(const Gate &gate);

    /** Apply every gate of @p circuit in order. */
    void apply(const Circuit &circuit);

    /** Sum of |a_i|^2; 1.0 for a valid state. */
    double norm() const;

    /** |<this|other>|^2 fidelity with another state of equal size. */
    double fidelity(const StateVector &other) const;

    /** Max elementwise |a_i - b_i| against @p other. */
    double maxAbsDiff(const StateVector &other) const;

    /** Count of amplitudes with |a| <= tol (zero-amplitude census). */
    Index countZeros(double tol = 0.0) const;

    /** Reset to |0...0>. */
    void reset();

    /**
     * Round every amplitude through fp32 storage (quantizeAmpF32) —
     * the flat-state counterpart of the chunked fp32 lane, used by
     * reference computations for the fp32 precision tier.
     */
    void quantizeF32()
    {
        for (Amp &a : amps_)
            a = quantizeAmpF32(a);
    }

  private:
    int numQubits_;
    std::vector<Amp> amps_;
};

/** Simulate @p circuit from |0...0> and return the final state. */
StateVector simulateReference(const Circuit &circuit);

} // namespace qgpu

#endif // QGPU_STATEVEC_STATE_VECTOR_HH

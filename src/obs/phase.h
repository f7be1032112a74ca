/**
 * @file
 * The typed training-phase taxonomy shared by the phase ledger, tracer
 * spans, and the Fig. 5 / Fig. 11 benches.
 *
 * Phases used to be free-floating string keys; a typo'd key silently
 * created a new phase in the breakdown tables. The enum is the single
 * source of truth and phaseName() the only place the display strings
 * live. PhaseTimes keeps each phase's seconds on two clocks — host
 * wall time *measured* here, device time *modeled* by
 * device::CostModel — and never adds them together.
 */
#pragma once

#include <array>
#include <cstddef>

#include "obs/trace.h"
#include "util/timer.h"

namespace buffalo::obs {

/** The built-in phases of one training iteration. */
enum class Phase : int
{
    /** Fanout neighbor sampling of the batch subgraph. */
    Sampling = 0,
    /** Buffalo scheduling (Algorithm 3). */
    Scheduling,
    /** Betty's redundancy-embedded-graph construction. */
    RegConstruction,
    /** Betty's METIS partition of the REG. */
    MetisPartition,
    /** Block generation: neighbor tracking / connection checks. */
    ConnectionCheck,
    /** Block generation: CSR assembly. */
    BlockConstruction,
    /** Host feature fill (measured) + host->device transfer
     *  (modeled). */
    DataLoading,
    /** Device kernel time (modeled). */
    GpuCompute,
};

/** Number of Phase enumerators (for iteration). */
inline constexpr std::size_t kNumPhases = 8;

/**
 * Stable display name of @p phase — the label the benches print and
 * the name of its tracer span. Strings match the paper's Fig. 11
 * legend.
 */
constexpr const char *
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::Sampling:
        return "sampling";
    case Phase::Scheduling:
        return "buffalo scheduling";
    case Phase::RegConstruction:
        return "REG construction";
    case Phase::MetisPartition:
        return "METIS partition";
    case Phase::ConnectionCheck:
        return "connection check";
    case Phase::BlockConstruction:
        return "block construction";
    case Phase::DataLoading:
        return "data loading";
    case Phase::GpuCompute:
        return "GPU compute";
    }
    return "unknown";
}

/** Every Phase in enum order (for breakdown tables and benches). */
inline constexpr std::array<Phase, kNumPhases> kAllPhases = {
    Phase::Sampling,          Phase::Scheduling,
    Phase::RegConstruction,   Phase::MetisPartition,
    Phase::ConnectionCheck,   Phase::BlockConstruction,
    Phase::DataLoading,       Phase::GpuCompute,
};

/**
 * Per-phase seconds on two clocks, for one iteration or summed over
 * many. *Measured* seconds are host wall time (sampling, scheduling,
 * partitioning, block generation, feature fill); *modeled* seconds are
 * simulated device time from device::CostModel (transfer, kernels).
 * There is no cross-clock total: a caller that wants one writes the
 * sum itself, so it is visible where the clocks meet.
 */
class PhaseTimes
{
  public:
    void
    addMeasured(Phase phase, double seconds)
    {
        measured_[index(phase)] += seconds;
    }
    void
    addModeled(Phase phase, double seconds)
    {
        modeled_[index(phase)] += seconds;
    }

    double measured(Phase phase) const { return measured_[index(phase)]; }
    double modeled(Phase phase) const { return modeled_[index(phase)]; }

    /** Measured seconds over every phase, summed in enum order. */
    double measuredSeconds() const { return sum(measured_); }
    /** Modeled seconds over every phase, summed in enum order. */
    double modeledSeconds() const { return sum(modeled_); }

    /** Adds @p other phase by phase, each clock to its own. */
    PhaseTimes &
    operator+=(const PhaseTimes &other)
    {
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            measured_[i] += other.measured_[i];
            modeled_[i] += other.modeled_[i];
        }
        return *this;
    }

  private:
    using Seconds = std::array<double, kNumPhases>;

    static std::size_t
    index(Phase phase)
    {
        return static_cast<std::size_t>(phase);
    }
    static double
    sum(const Seconds &seconds)
    {
        double total = 0.0;
        for (const double s : seconds)
            total += s;
        return total;
    }

    Seconds measured_{};
    Seconds modeled_{};
};

/**
 * RAII scope that charges its lifetime to @p phase on the measured
 * clock of a PhaseTimes and records it as a span on the global tracer.
 * The span side is free when tracing is disabled, so instrumented
 * code pays only the stopwatch it always paid.
 */
class PhaseScope
{
  public:
    PhaseScope(PhaseTimes &times, Phase phase)
        : times_(times), phase_(phase), span_(phaseName(phase)) {}
    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;
    ~PhaseScope() { times_.addMeasured(phase_, watch_.seconds()); }

  private:
    PhaseTimes &times_;
    Phase phase_;
    Span span_;
    util::StopWatch watch_;
};

} // namespace buffalo::obs

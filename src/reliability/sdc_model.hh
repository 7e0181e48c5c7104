/**
 * @file
 * Analytic and Monte Carlo SDC / DUE models (Chapter 6, Figure 6.1).
 *
 * The structure follows the tech-report models the paper cites [12]:
 *
 *  - A codeword spans one symbol from every device of its *group* (a
 *    36-device lockstep rank for commercial chipkill; an 18-device
 *    rank for an ARCC relaxed codeword).  Two faults in different
 *    devices of the same group produce two bad symbols in a common
 *    codeword whenever their (bank, row, column) footprints intersect
 *    -- the worst-case corruption assumption of Chapter 3.
 *
 *  - **ARCC's reduced double error detection (ARCC DED)**: a relaxed
 *    codeword only guarantees detection of one bad symbol.  An SDC
 *    candidate occurs when a second overlapping fault arrives *before
 *    the scrub that would have detected the first and upgraded the
 *    page* (an exposure window averaging half the scrub period).  This
 *    is exactly the error-correction reliability structure of double
 *    chip sparing, as Section 6.2 argues.
 *
 *  - **Commercial SCCDCD (simultaneous DED)**: detection of two bad
 *    symbols is guaranteed; an SDC candidate needs *three* overlapping
 *    bad symbols, i.e. a third fault arriving within the exposure
 *    window of the second while a first persists.
 *
 * Both models optionally multiply by an aliasing factor: the measured
 * probability that an overwhelmed Reed-Solomon decode actually returns
 * wrong data silently instead of flagging a DUE.  The factor can be
 * measured empirically with measureMiscorrectionRate(), which runs the
 * real codec from src/ecc.  With the factor at 1.0 the model counts
 * every undetectable-pattern event as an SDC, which is the paper's
 * conservative treatment.
 */

#ifndef ARCC_RELIABILITY_SDC_MODEL_HH
#define ARCC_RELIABILITY_SDC_MODEL_HH

#include <array>
#include <cstdint>

#include "faults/trial_kernel.hh"

namespace arcc
{

class SimEngine;

/**
 * Detailed outcome of the SDC-event Monte Carlo.  Every field is an
 * integer counter, so cross-thread-count equality is exact (no
 * floating-point reduction is involved until eventsPerTrial()).
 */
struct McSdcResult
{
    /** Bins of the per-trial event histogram; the last bin is >=. */
    static constexpr int kHistogramBins = 8;

    std::uint64_t trials = 0;
    /** Total SDC-candidate events over all trials. */
    std::uint64_t events = 0;
    /** Total concrete faults sampled over all trials. */
    std::uint64_t faultsSampled = 0;
    /** eventHistogram[k] = trials that saw exactly k events. */
    std::array<std::uint64_t, kHistogramBins> eventHistogram{};

    double
    eventsPerTrial() const
    {
        return trials == 0
                   ? 0.0
                   : static_cast<double>(events) / trials;
    }

    /** Accumulate another partial (shard-order merge). */
    void
    merge(const McSdcResult &o)
    {
        trials += o.trials;
        events += o.events;
        faultsSampled += o.faultsSampled;
        for (int i = 0; i < kHistogramBins; ++i)
            eventHistogram[i] += o.eventHistogram[i];
    }
};

/** Reliability-model configuration. */
struct SdcModelConfig
{
    FaultRates rates = FaultRates::fieldStudy();
    /** Total devices in the machine's memory (the paper uses 72). */
    int devices = 72;
    /** Codeword groups the devices are divided into. */
    int groups = 2;
    /** Devices per group (symbols per codeword's reach). */
    int devicesPerGroup = 36;
    /** Per-device geometry for footprint-intersection probabilities. */
    int banks = 8;
    int rowsPerBank = 8192;
    int colsPerBank = 1024;
    /** Scrub period in hours (the paper assumes 4). */
    double scrubHours = 4.0;
    /** P(undetected | overlapping pattern); 1.0 = conservative. */
    double aliasFactor = 1.0;

    /** The commercial-chipkill machine of Figure 6.1. */
    static SdcModelConfig sccdcdMachine();
    /** The same 72 devices under ARCC relaxed grouping. */
    static SdcModelConfig arccMachine();
};

/**
 * Closed-form SDC / DUE rate model with Monte Carlo validation.
 */
class SdcModel
{
  public:
    explicit SdcModel(const SdcModelConfig &config);

    /**
     * P(two faults of the given types produce two bad symbols in some
     * common codeword), under worst-case footprints.
     */
    double pairOverlap(FaultType a, FaultType b) const;

    /** Same for three faults and a common codeword. */
    double tripleOverlap(FaultType a, FaultType b, FaultType c) const;

    /**
     * Expected ARCC-DED SDC events per machine over `years`
     * (second overlapping fault inside the first's exposure window).
     */
    double arccSdcEvents(double years) const;

    /**
     * Expected simultaneous-DED (commercial SCCDCD) SDC events per
     * machine over `years` (three overlapping bad symbols).
     */
    double sccdcdSdcEvents(double years) const;

    /** Events per 1000 machine-years, the unit of Figure 6.1. */
    double arccSdcPer1000MachineYears(double years) const;
    double sccdcdSdcPer1000MachineYears(double years) const;

    /**
     * DUE model (Section 6.1): overlapping pairs regardless of the
     * scrub window -- identical for ARCC and the commercial baseline,
     * which is the section's claim.
     */
    double dueEvents(double years) const;

    /**
     * Monte Carlo validation of arccSdcEvents with rates uniformly
     * boosted (the raw rates are too small to hit in feasible trials).
     * Compare against arccSdcEvents computed on the boosted config.
     *
     * Trial t is trial t of a TrialKernel, one codeword group per
     * rank, scored by countOverlapPairs' SDC count.  Trials are
     * sharded across the engine (nullptr = the global one); the
     * per-shard partials are integer counters merged in shard order,
     * so the event count and the per-trial histogram are
     * bit-identical at any thread count.
     * tests/test_determinism.cc enforces this.
     */
    double mcArccSdcEvents(double years, double boost, int trials,
                           std::uint64_t seed,
                           SimEngine *engine = nullptr) const;

    /** Same run, returning the full counters and histogram. */
    McSdcResult mcArccSdcEventsDetailed(double years, double boost,
                                        int trials, std::uint64_t seed,
                                        SimEngine *engine
                                        = nullptr) const;

  private:
    /** Rate (per hour) of faults of type t across the machine. */
    double machineRate(FaultType t) const;

    SdcModelConfig config_;
};

/**
 * Empirically measure the miscorrection (silent-aliasing) probability
 * of an RS(n, k) decode limited to maxCorrect errors when hit by
 * `numErrors` random symbol errors.  Uses the real codec.
 *
 * @return fraction of trials where the decoder silently returned a
 *         wrong codeword (status Corrected but data != original).
 */
double measureMiscorrectionRate(int n, int k, int maxCorrect,
                                int numErrors, int trials,
                                std::uint64_t seed);

} // namespace arcc

#endif // ARCC_RELIABILITY_SDC_MODEL_HH

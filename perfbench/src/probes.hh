/**
 * @file
 * Per-layer probes: spans the benchmark records around calls into one
 * layer's public functions, replaying a workload's inputs (or, for a
 * layer the workload leaves idle, a small standalone input set), so
 * every traced run reports every layer.
 *
 * Layer groups and the workload that is their home:
 *   cpu/cache/dram         figsweep   simLayerProbe
 *   ecc/arcc/engine        scrub_rw   eccLayerProbe + arccLayerProbe
 *   faults/reliability/
 *   campaign               fleet      campaignLayerProbe
 *   service/server         arccd      serviceLayerProbe
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <vector>

#include "campaign/campaign.hh"
#include "cpu/system_sim.hh"
#include "harness.hh"
#include "workloads.hh"

namespace perfbench
{

/**
 * cpu/cache/dram.  For every job: time simulateMix; replay its access
 * stream from outside (syntheticStreamSpec draws, PairedTagLlc::access,
 * AddressMap::decode, ChannelSet::access[Paired]); count its latency
 * passes.  Miss and request counts come from the job's SimResult, not
 * the replay.  `causes[i]` is the workload op that ran job i (or 0).
 */
void simLayerProbe(const std::vector<arcc::MixJob> &jobs,
                   const std::vector<std::uint64_t> &causes,
                   SpanLog &spans, Outcome &out);

/** The Mix1 row of the figsweep grid: the sim probe's standalone set. */
std::vector<arcc::MixJob> simProbeJobs();

/** ecc: RS(18,16) / RS(36,32) encode and 1-error decode, SoA screen. */
void eccLayerProbe(std::uint64_t seed, SpanLog &spans, Outcome &out);

/**
 * arcc/engine on a scrub_rw instance of `shape`: `cycles` rounds of
 * shape.scrubEvery batches plus one scrubParallel, then the upgrade
 * and serial-vs-parallel scrub probes.
 */
void arccLayerProbe(std::uint64_t seed, const ScrubRwShape &shape,
                    int cycles, SpanLog &spans, Outcome &out);

/** faults/reliability/campaign on a standalone fleet spec. */
void campaignLayerProbe(const arcc::CampaignSpec &spec,
                        const std::string &workDir, SpanLog &spans,
                        Outcome &out);

/** service/server against a freshly started daemon. */
void serviceLayerProbe(const Options &options, SpanLog &spans,
                       Outcome &out);

/** Run the standalone probe of every layer group `out` still lacks. */
void probeRemainingLayers(const Options &options, SpanLog &spans,
                          Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH

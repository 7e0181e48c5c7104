/**
 * @file
 * Synthetic SPEC-like workload generators and the 12 mixes of
 * Table 7.3.
 *
 * The paper drives its memory system with quad-core multiprogrammed
 * SPEC workloads captured under the M5 full-system simulator.  Neither
 * M5 traces nor SPEC binaries are available here, so each benchmark is
 * substituted by a *statistical twin*: a stream generator parameterised
 * by the memory-behaviour statistics that Figures 7.1-7.5 actually
 * depend on --
 *
 *  - base IPC      (compute throughput between LLC accesses),
 *  - APKI          (LLC accesses per kilo-instruction),
 *  - footprint     (working set; LLC miss rate emerges from it),
 *  - spatial       (probability the next access touches the adjacent
 *                   64B line -- this is what makes an upgraded 128B
 *                   fetch act as a useful prefetch or as pure waste),
 *  - write fraction (dirty-writeback traffic).
 *
 * Parameter values encode the well-known qualitative behaviour of each
 * benchmark (e.g. mcf = huge footprint + pointer chasing, libquantum =
 * extreme streaming, sjeng = cache-resident).  DESIGN.md section 4
 * documents the substitution argument.
 */

#ifndef ARCC_CPU_WORKLOADS_HH
#define ARCC_CPU_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"

namespace arcc
{

/** Statistical profile of one benchmark. */
struct BenchmarkProfile
{
    std::string name;
    /** IPC when every LLC access hits (2-wide core, Table 7.2). */
    double baseIpc = 1.2;
    /** LLC accesses per kilo-instruction. */
    double apki = 10.0;
    /** Working-set size in MiB (drives the LLC miss rate). */
    double footprintMiB = 8.0;
    /** P(next LLC access is to the adjacent 64B line). */
    double spatial = 0.4;
    /** Fraction of LLC accesses that are stores. */
    double writeFrac = 0.3;
};

/** Look up a benchmark profile by SPEC name; fatal if unknown. */
const BenchmarkProfile &benchmarkProfile(const std::string &name);

/** All profiles (for tests and tooling). */
const std::vector<BenchmarkProfile> &allBenchmarkProfiles();

/** One quad-core mix of Table 7.3. */
struct WorkloadMix
{
    std::string name;
    std::vector<std::string> benchmarks; // 4 entries
};

/** The 12 mixes of Table 7.3. */
const std::vector<WorkloadMix> &table73Mixes();

/** The Table 7.3 mix a CLI flag or service request names ("Mix1" ..
 *  "Mix12"); nullptr for any other name. */
const WorkloadMix *mixByName(std::string_view name);

/**
 * Stream generator: produces the LLC access stream of one core running
 * one benchmark.
 */
class CoreWorkload
{
  public:
    /** One LLC access. */
    struct Access
    {
        std::uint64_t addr = 0;
        bool isWrite = false;
        /** Instructions retired since the previous LLC access. */
        std::uint64_t instrGap = 0;
    };

    /**
     * @param profile    the benchmark to imitate.
     * @param mem_bytes  memory capacity; footprints are placed inside.
     * @param core_id    places each core's footprint in a distinct
     *                   region, as separate processes would be.
     * @param seed       RNG seed (deterministic streams).
     */
    CoreWorkload(const BenchmarkProfile &profile,
                 std::uint64_t mem_bytes, int core_id,
                 std::uint64_t seed);

    /** Generate the next access. */
    Access next();

    const BenchmarkProfile &profile() const { return profile_; }

  private:
    BenchmarkProfile profile_;
    Rng rng_;
    std::uint64_t regionBase_;
    std::uint64_t regionLines_;
    std::uint64_t lastLine_;
    double meanGap_;
    /** Rng::geometricLogKeep(meanGap_), when meanGap_ > 1. */
    double gapLogKeep_ = 0.0;
};

} // namespace arcc

#endif // ARCC_CPU_WORKLOADS_HH

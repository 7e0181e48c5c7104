/**
 * @file
 * Shared plumbing for the per-figure bench binaries.
 *
 * Every bench prints the rows/series of one paper table or figure,
 * and states each paper claim it checks through shapeRow: a bench
 * with a failed claim exits 1.
 * The simulated instruction budget scales with ARCC_BENCH_INSTRS
 * (default one million per core, which reproduces the shapes in a few
 * seconds per figure; the paper used 2 billion cycles in M5).
 *
 * A bench's stdout is a pure function of its inputs: it holds results
 * only, so it is byte-identical at any ARCC_THREADS and SIMD tier.
 * The host details a run used -- the executor count and the SIMD
 * tier -- go to stderr, as the one line reportHost() writes.
 */

#ifndef ARCC_BENCH_BENCH_COMMON_HH
#define ARCC_BENCH_BENCH_COMMON_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/parse_num.hh"
#include "common/table.hh"
#include "cpu/system_sim.hh"
#include "ecc/simd.hh"
#include "engine/sim_engine.hh"
#include "faults/fault_model.hh"
#include "faults/lifetime_mc.hh"

namespace arcc::bench
{

/** Per-core instruction budget (env ARCC_BENCH_INSTRS overrides;
 *  a set-but-unparseable value is fatal, never a silent zero). */
inline std::uint64_t
instrBudget()
{
    return envU64("ARCC_BENCH_INSTRS", 1'000'000);
}

/**
 * Write the executor count and the SIMD tier as one stderr line.
 * Every bench calls this first, so each run's stderr records how it
 * ran while its stdout stays the same on any host.
 */
inline void
reportHost()
{
    std::fprintf(stderr, "host: %d executor(s), SIMD tier %s\n",
                 SimEngine::global().threads(),
                 simd::tierName(simd::activeTier()));
}

/** Pre-format a counter / double for a jsonRow value. */
inline std::string
jsonNum(std::uint64_t v)
{
    return std::to_string(v);
}

inline std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Version of the jsonRow schema.  Bump when the row layout changes
 *  (fields added / removed / renamed) so downstream consumers can
 *  reject rows they do not understand. */
inline constexpr std::uint32_t kBenchSchemaVersion = 3;

/**
 * Stable hash of what shaped a row: schema version, bench family,
 * field-name list, and the instruction budget.  Deliberately excludes
 * every field *value*: two rows with equal hashes answer the same
 * question.
 */
inline std::uint64_t
rowConfigHash(const std::string &bench,
              const std::vector<std::pair<std::string, std::string>>
                  &fields)
{
    auto fold = [](std::uint64_t h, std::uint64_t v) {
        return Rng::mix64(h ^ v);
    };
    auto foldString = [&](std::uint64_t h, const std::string &s) {
        h = fold(h, s.size());
        for (char c : s)
            h = fold(h, static_cast<std::uint8_t>(c));
        return h;
    };
    std::uint64_t h = fold(0x524f5748ULL, kBenchSchemaVersion);
    h = foldString(h, bench);
    h = fold(h, instrBudget());
    for (const auto &[key, value] : fields)
        h = foldString(h, key);
    return h;
}

/**
 * Emit one machine-readable JSON line to stdout alongside the human
 * tables, stamped with the schema version and the row's config hash.
 * Field values must be pure functions of the bench's inputs: CI diffs
 * the whole stdout of a 1-thread and an N-thread run.
 */
inline void
jsonRow(const std::string &bench,
        const std::vector<std::pair<std::string, std::string>> &fields)
{
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      rowConfigHash(bench, fields)));
    std::string out = "{\"bench\":\"" + bench +
                      "\",\"schema_version\":" +
                      std::to_string(kBenchSchemaVersion) +
                      ",\"config_hash\":\"" + hash + "\"";
    for (const auto &[key, value] : fields)
        out += ",\"" + key + "\":" + value;
    out += "}";
    std::printf("%s\n", out.c_str());
}

/** Standard simulation config for a memory configuration. */
inline SystemConfig
systemConfig(const MemoryConfig &mem)
{
    SystemConfig cfg;
    cfg.mem = mem;
    cfg.instrsPerCore = instrBudget();
    cfg.seed = 20130223; // HPCA 2013.
    return cfg;
}

/** One Table 7.3 mix run fault-free on both Table 7.1 configurations. */
struct FaultFreePair
{
    SimResult base;
    SimResult arcc;

    /** Figure 7.1's power reduction: 1 - ARCC / baseline power. */
    double
    powerSaving() const
    {
        return 1.0 - arcc.avgPowerMw / base.avgPowerMw;
    }

    /** Figure 7.1's performance gain: ARCC / baseline IPC sum - 1. */
    double
    perfGain() const
    {
        return arcc.ipcSum / base.ipcSum - 1.0;
    }
};

/**
 * Figure 7.1's grid: every Table 7.3 mix, fault-free, on the baseline
 * and on ARCC, submitted to the SimEngine as one simulateMixBatch.
 * Pairs come back in mix order, so a reduction in that order is
 * bit-identical at any thread count.
 */
inline std::vector<FaultFreePair>
runFaultFreeGrid()
{
    const SystemConfig base_cfg = systemConfig(baselineConfig());
    const SystemConfig arcc_cfg = systemConfig(arccConfig());
    std::vector<MixJob> jobs;
    for (const WorkloadMix &mix : table73Mixes()) {
        jobs.push_back({mix, base_cfg, {}});
        jobs.push_back({mix, arcc_cfg, {}});
    }
    const std::vector<SimResult> results = simulateMixBatch(jobs);
    std::vector<FaultFreePair> pairs;
    for (std::size_t j = 0; j < results.size(); j += 2)
        pairs.push_back({results[j], results[j + 1]});
    return pairs;
}

/** The Table 7.4 fault scenarios in paper order. */
inline const std::vector<PageUpgradeOracle::Scenario> &
faultScenarios()
{
    static const std::vector<PageUpgradeOracle::Scenario> s = {
        PageUpgradeOracle::Scenario::Lane,
        PageUpgradeOracle::Scenario::Device,
        PageUpgradeOracle::Scenario::Bank,
        PageUpgradeOracle::Scenario::Column,
    };
    return s;
}

/** Power / performance overheads of one fault scenario vs fault-free. */
struct ScenarioOverheads
{
    /** Fractional power increase per scenario (paper Figure 7.2). */
    std::array<double, 4> power{};
    /** Fractional IPC decrease per scenario (paper Figure 7.3). */
    std::array<double, 4> perf{};
};

/** Jobs per mix in runScenarioGrid: the clean run first, then one
 *  per Table 7.4 fault scenario in faultScenarios() order. */
inline constexpr std::size_t kJobsPerMix = 5;

/**
 * Run the (mix x {clean, the four Table 7.4 faults}) grid on the ARCC
 * configuration, submitted to the SimEngine as one simulateMixBatch.
 * Results come back in mix order, kJobsPerMix per mix, so a reduction
 * in that order is bit-identical at any thread count.
 *
 * @param mixes how many of the 12 mixes to run (all by default).
 */
inline std::vector<SimResult>
runScenarioGrid(int mixes = 12)
{
    ARCC_ASSERT(mixes >= 1 &&
                mixes <= static_cast<int>(table73Mixes().size()));
    ARCC_ASSERT(faultScenarios().size() + 1 == kJobsPerMix);
    const SystemConfig cfg = systemConfig(arccConfig());
    std::vector<MixJob> jobs;
    jobs.reserve(mixes * kJobsPerMix);
    for (int m = 0; m < mixes; ++m) {
        const WorkloadMix &mix = table73Mixes()[m];
        jobs.push_back({mix, cfg, {}});
        for (PageUpgradeOracle::Scenario s : faultScenarios())
            jobs.push_back(
                {mix, cfg, PageUpgradeOracle::forScenario(s, cfg.mem)});
    }
    return simulateMixBatch(jobs);
}

/**
 * Measure the mix-averaged overhead of each Table 7.4 scenario on the
 * ARCC configuration (methodology step 1 of Section 7.1), reducing
 * runScenarioGrid in mix order.
 *
 * @param mixes how many of the 12 mixes to average (all by default).
 */
inline ScenarioOverheads
measureScenarioOverheads(int mixes = 12)
{
    const std::vector<SimResult> results = runScenarioGrid(mixes);
    ScenarioOverheads out;
    std::array<double, 4> power_sum{};
    std::array<double, 4> perf_sum{};
    for (int m = 0; m < mixes; ++m) {
        const SimResult &clean = results[m * kJobsPerMix];
        for (std::size_t s = 0; s < 4; ++s) {
            const SimResult &r = results[m * kJobsPerMix + 1 + s];
            power_sum[s] += r.avgPowerMw / clean.avgPowerMw - 1.0;
            perf_sum[s] += 1.0 - r.ipcSum / clean.ipcSum;
        }
    }
    for (std::size_t s = 0; s < 4; ++s) {
        out.power[s] = power_sum[s] / mixes;
        out.perf[s] = perf_sum[s] / mixes;
    }
    return out;
}

/** Set by every failed shapeRow; exitStatus() reads it. */
inline bool anyShapeFailed = false;

/**
 * State one paper claim: emit it as a {"bench":"shape"} row and print
 * the human line "  <check> (<measured>): yes|NO".  A failed claim
 * makes exitStatus() 1, so a `NO` fails the binary (and CI) instead
 * of only being printed.
 *
 * @param measured the numbers behind the verdict, for the human line
 *                 only (empty prints none).
 */
inline void
shapeRow(const std::string &figure, const std::string &check, bool pass,
         const std::string &measured = "")
{
    jsonRow("shape", {{"figure", "\"" + figure + "\""},
                      {"check", "\"" + check + "\""},
                      {"pass", pass ? "true" : "false"}});
    const std::string detail =
        measured.empty() ? "" : " (" + measured + ")";
    std::printf("  %s%s: %s\n", check.c_str(), detail.c_str(),
                pass ? "yes" : "NO");
    anyShapeFailed = anyShapeFailed || !pass;
}

/** The bench's exit status: 1 when any shapeRow failed, else 0. */
inline int
exitStatus()
{
    return anyShapeFailed ? 1 : 0;
}

/**
 * Map measured scenario overheads onto the fault taxonomy for the
 * lifetime Monte Carlo (Figures 7.4 / 7.5).  Row / word / bit faults
 * upgrade a negligible number of pages, so their overhead is ~0.
 */
inline PerTypeOverhead
toPerTypeOverhead(const std::array<double, 4> &scenario)
{
    PerTypeOverhead o{};
    o[static_cast<int>(FaultType::Lane)] = scenario[0];
    o[static_cast<int>(FaultType::Device)] = scenario[1];
    o[static_cast<int>(FaultType::Bank)] = scenario[2];
    o[static_cast<int>(FaultType::Column)] = scenario[3];
    return o;
}

/** Worst-case-estimate overhead: the upgraded page fraction itself. */
inline PerTypeOverhead
worstCaseOverhead(const DomainGeometry &geom, double cost_factor)
{
    PerTypeOverhead o{};
    for (FaultType t : allFaultTypes())
        o[static_cast<int>(t)] =
            cost_factor * geom.pageFraction(t);
    return o;
}

/** Default reliability-domain geometry (72 devices, 4 GB). */
inline DomainGeometry
defaultGeometry()
{
    DomainGeometry g;
    g.ranks = 2;
    g.devicesPerRank = 36;
    g.banksPerDevice = 8;
    g.pagesPerRow = 2;
    g.pages = 1048576;
    return g;
}

} // namespace arcc::bench

#endif // ARCC_BENCH_BENCH_COMMON_HH

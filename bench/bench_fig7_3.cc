/**
 * @file
 * Figure 7.3: performance (sum of IPCs) of the ARCC memory system in
 * the presence of one device-level fault, normalised to fault-free.
 * Mixes with spatial locality benefit from the implicit 128B prefetch;
 * low-locality mixes degrade.  Worst case (no locality, bandwidth
 * bound) is -50% under a lane fault.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace arcc;

int
main()
{
    bench::reportHost();
    printBanner(
        "Figure 7.3: Performance of a Memory System with Fault");
    std::printf("ARCC IPC with one fault, normalised to fault-free "
                "(>1.00 = the paired fetch acts as a prefetch).\n\n");

    SystemConfig cfg = bench::systemConfig(arccConfig());
    const auto &scenarios = bench::faultScenarios();

    TextTable t;
    t.header({"Mix", "1 lane", "1 device", "1 subbank", "1 column"});

    const std::vector<SimResult> results = bench::runScenarioGrid();
    std::array<RunningStat, 4> per_scenario;
    int improved = 0;
    int degraded = 0;
    for (std::size_t m = 0; m < table73Mixes().size(); ++m) {
        const WorkloadMix &mix = table73Mixes()[m];
        const SimResult &clean = results[m * bench::kJobsPerMix];
        std::vector<std::string> row = {mix.name};
        std::vector<std::pair<std::string, std::string>> fields = {
            {"mix", "\"" + mix.name + "\""}};
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
            const SimResult &r = results[m * bench::kJobsPerMix + 1 + s];
            double norm = r.ipcSum / clean.ipcSum;
            per_scenario[s].add(norm);
            if (s == 0) {
                if (norm > 1.005)
                    ++improved;
                if (norm < 0.995)
                    ++degraded;
            }
            row.push_back(TextTable::num(norm, 3));
            fields.emplace_back("norm_ipc_" + std::to_string(s),
                                bench::jsonNum(norm));
        }
        t.row(row);
        bench::jsonRow("fig7_3", fields);
    }
    {
        std::vector<std::string> avg = {"Average"};
        for (auto &st : per_scenario)
            avg.push_back(TextTable::num(st.mean(), 3));
        t.row(avg);
    }
    {
        // Worst case: no spatial locality and bandwidth-bound -- an
        // upgraded access consumes two bus slots for one useful line,
        // so throughput scales by 1/(1+f).
        std::vector<std::string> wc = {"worst case est."};
        for (auto s : scenarios) {
            auto oracle = PageUpgradeOracle::forScenario(s, cfg.mem);
            double f = oracle.expectedFraction();
            wc.push_back(TextTable::num(1.0 / (1.0 + f), 3));
        }
        t.row(wc);
    }
    t.print();

    std::printf("\nShape checks (paper Section 7.2):\n");
    bench::shapeRow("fig7_3", "some mixes improve under a lane fault",
                    improved > 0,
                    "prefetch effect, " + std::to_string(improved) +
                        " of 12");
    bench::shapeRow("fig7_3", "some mixes degrade under a lane fault",
                    degraded > 0, std::to_string(degraded) + " of 12");
    // Paper: "negligible performance degradation on average".
    bench::shapeRow("fig7_3",
                    "average lane-fault IPC >= 0.99 of fault-free",
                    per_scenario[0].mean() >= 0.99,
                    "avg lane norm " +
                        TextTable::num(per_scenario[0].mean(), 3));
    std::printf("  worst-case estimate for a lane fault is -50%% "
                "(0.500): printed above.\n");
    return bench::exitStatus();
}

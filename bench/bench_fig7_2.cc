/**
 * @file
 * Figure 7.2: power consumption of the ARCC memory system in the
 * presence of one device-level fault, normalised to the fault-free
 * system, per mix and per fault type (Table 7.4 upgrade fractions),
 * with the worst-case estimate (1 + upgraded fraction).
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace arcc;

int
main()
{
    printBanner(
        "Figure 7.2: Power Consumption of a Memory System with Fault");
    std::printf("ARCC power with one fault, normalised to fault-free "
                "(1.00 = no overhead).\n\n");

    SystemConfig cfg = bench::systemConfig(arccConfig());
    const auto &scenarios = bench::faultScenarios();

    TextTable t;
    t.header({"Mix", "1 lane", "1 device", "1 subbank", "1 column"});

    const std::vector<SimResult> results = bench::runScenarioGrid();
    std::array<RunningStat, 4> per_scenario;
    for (std::size_t m = 0; m < table73Mixes().size(); ++m) {
        const WorkloadMix &mix = table73Mixes()[m];
        const SimResult &clean = results[m * bench::kJobsPerMix];
        std::vector<std::string> row = {mix.name};
        std::vector<std::pair<std::string, std::string>> fields = {
            {"mix", "\"" + mix.name + "\""}};
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
            const SimResult &r = results[m * bench::kJobsPerMix + 1 + s];
            double norm = r.avgPowerMw / clean.avgPowerMw;
            per_scenario[s].add(norm);
            row.push_back(TextTable::num(norm, 3));
            fields.emplace_back(
                "norm_power_" + std::to_string(s),
                bench::jsonNum(norm));
        }
        t.row(row);
        bench::jsonRow("fig7_2", fields);
    }
    {
        std::vector<std::string> avg = {"Average"};
        for (auto &st : per_scenario)
            avg.push_back(TextTable::num(st.mean(), 3));
        t.row(avg);
    }
    {
        // Worst-case estimate: every upgraded access costs double and
        // the second sub-line is never useful -> power multiplier is
        // 1 + fraction of pages upgraded.
        std::vector<std::string> wc = {"worst case est."};
        for (auto s : scenarios) {
            auto oracle = PageUpgradeOracle::forScenario(s, cfg.mem);
            wc.push_back(
                TextTable::num(1.0 + oracle.expectedFraction(), 3));
        }
        t.row(wc);
    }
    t.print();

    std::printf("\nShape checks (paper Section 7.2):\n");
    const bool ordered = bench::shapeRow(
        "fig7_2", "lane >= device >= subbank >= column",
        per_scenario[0].mean() >= per_scenario[1].mean() &&
            per_scenario[1].mean() >= per_scenario[2].mean() &&
            per_scenario[2].mean() >= per_scenario[3].mean());
    std::printf("  lane >= device >= subbank >= column: %s\n",
                ordered ? "yes" : "NO");
    const bool bounded = bench::shapeRow(
        "fig7_2", "lane overhead below the worst-case estimate",
        per_scenario[0].mean() < 2.0);
    std::printf("  measured lane overhead (%.1f%%) below worst-case "
                "estimate (100%%): %s\n",
                (per_scenario[0].mean() - 1.0) * 100.0,
                bounded ? "yes" : "NO");
    return ordered && bounded ? 0 : 1;
}

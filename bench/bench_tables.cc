/**
 * @file
 * Reproduces Tables 7.1-7.4 of the paper from the library's own
 * configuration structures, so the printed tables cannot drift from
 * what the simulations actually use.
 *
 * A machine-readable JSON row of the FIT rates accompanies the
 * tables; CI runs this bench at 1 and N threads and diffs the whole
 * stdout.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"
#include "dram/dram_params.hh"

using namespace arcc;

namespace
{

void
table71()
{
    printBanner("Table 7.1: Memory Configurations");
    TextTable t;
    t.header({"Name", "Tech", "I/O", "Chan", "Ranks/Chan", "Rank Size",
              "Devices/Access"});
    for (const MemoryConfig &c : {baselineConfig(), arccConfig()}) {
        t.row({c.name == baselineConfig().name ? "Baseline" : "ARCC",
               "DDR2", toString(c.device.width),
               std::to_string(c.channels),
               std::to_string(c.ranksPerChannel),
               std::to_string(c.devicesPerRank),
               std::to_string(c.devicesPerAccess)});
    }
    t.print();
    std::printf("\n(total devices: %d each; data capacity 4 GB; "
                "storage overhead 12.5%% both)\n",
                baselineConfig().totalDevices());
}

void
table72()
{
    printBanner("Table 7.2: Processor Microarchitecture");
    TextTable t;
    t.header({"SS Width", "IQ Size", "Phys Regs", "LSQ Size"});
    t.row({"2", "16", "72FP/72INT", "32LQ/32SQ"});
    t.print();
    TextTable t2;
    t2.header({"L1 D$,I$", "L1 Assoc", "L1 lat.", "L2$", "L2 Assoc",
               "L2 lat.", "Line", "L2 MSHR"});
    t2.row({"32 kB", "2", "1 cycle", "1MB", "16", "10 cycles", "64B",
            "240"});
    t2.print();
    std::printf("\n(model: 2-wide cores with per-benchmark base IPC; "
                "1MB 16-way shared LLC, 64B lines)\n");
}

void
table73()
{
    printBanner("Table 7.3: Workloads");
    TextTable t;
    t.header({"Mix", "Benchmarks"});
    for (const WorkloadMix &mix : table73Mixes()) {
        std::string list;
        for (const auto &b : mix.benchmarks)
            list += (list.empty() ? "" : ";") + b;
        t.row({mix.name, list});
    }
    t.print();
}

void
table74()
{
    printBanner("Table 7.4: Fault Modeling Details");
    DomainGeometry g = bench::defaultGeometry();
    TextTable t;
    t.header({"Fault Type", "Fraction of Pages Upgraded"});
    t.row({"Lane", TextTable::num(g.pageFraction(FaultType::Lane), 4) +
                       "  (both ranks upgraded)"});
    t.row({"Device",
           TextTable::num(g.pageFraction(FaultType::Device), 4) +
               "  (1 of 2 ranks)"});
    t.row({"Subbank",
           TextTable::num(g.pageFraction(FaultType::Bank), 4) +
               "  (1 of 8 banks of 1 rank)"});
    t.row({"Column",
           TextTable::num(g.pageFraction(FaultType::Column), 4) +
               "  (half the pages of 1 bank)"});
    t.row({"Row", TextTable::sci(g.pageFraction(FaultType::Row), 1) +
                      "  (2 pages/row)"});
    t.row({"Bit/Word",
           TextTable::sci(g.pageFraction(FaultType::Bit), 1)});
    t.print();

    std::printf("\nField-study FIT rates per device "
                "(approximating Sridharan & Liberty SC'12):\n");
    TextTable r;
    r.header({"Fault", "FIT/device"});
    FaultRates rates = FaultRates::fieldStudy();
    for (FaultType ft : allFaultTypes())
        r.row({toString(ft), TextTable::num(rates[ft], 1)});
    r.row({"total", TextTable::num(rates.totalFit(), 1)});
    r.print();

    std::vector<std::pair<std::string, std::string>> fields;
    for (FaultType ft : allFaultTypes())
        fields.emplace_back(toString(ft),
                            bench::jsonNum(rates[ft]));
    fields.emplace_back("totalFit",
                        bench::jsonNum(rates.totalFit()));
    bench::jsonRow("tables_fit_rates", fields);
}

} // namespace

int
main()
{
    bench::reportHost();
    std::printf("ARCC reproduction -- configuration tables "
                "(HPCA 2013, Tables 7.1-7.4)\n");
    table71();
    table72();
    table73();
    table74();
    return 0;
}

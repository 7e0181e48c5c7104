/**
 * @file
 * Section 4.2.2: cost of the ARCC test-pattern scrubber.  Reproduces
 * the closed-form numbers (0.4s per pass over a 4GB / 128-bit / 667MHz
 * channel; 2.4s per six-pass scrub; 0.0167% of bandwidth at one scrub
 * every four hours) and demonstrates the functional scrubber's work on
 * a small memory with injected faults.
 *
 * Section 4.2.2's claims are shape rows: the model's pass time and
 * bandwidth share each within 1% of the paper's figure, and the
 * functional scrub upgrading every faulty page it finds without a
 * DUE.
 *
 * The functional demonstration runs on the engine-sharded
 * Scrubber::scrubParallel path, and every table is echoed as a JSON
 * row.  CI runs this bench at 1 and N threads and diffs the whole
 * stdout, which is how the parallel scrubber's determinism is
 * enforced end to end; the executor count goes to stderr.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "arcc/scrubber.hh"
#include "bench_common.hh"
#include "common/rng.hh"
#include "common/table.hh"

using namespace arcc;

int
main()
{
    bench::reportHost();
    printBanner("Section 4.2.2: Memory Scrubbing Overhead");

    const double bytes = 4.0 * 1024 * 1024 * 1024;
    const double bus = 667e6 * 16.0; // 128-bit channel at 667 MT/s.
    double pass = bytes / bus;
    double scrub = Scrubber::scrubSeconds(bytes, bus);
    double frac = Scrubber::bandwidthFraction(scrub, 4.0);

    TextTable t;
    t.header({"Quantity", "Model", "Paper"});
    t.row({"One pass over 4GB channel",
           TextTable::num(pass, 2) + " s", "0.4 s"});
    t.row({"Full 6-pass ARCC scrub", TextTable::num(scrub, 2) + " s",
           "2.4 s"});
    t.row({"Bandwidth at 1 scrub / 4 h", TextTable::pct(frac, 4),
           "0.0167%"});
    t.print();
    bench::jsonRow("scrub_overhead_model",
                   {{"passSeconds", bench::jsonNum(pass)},
                    {"scrubSeconds", bench::jsonNum(scrub)},
                    {"bandwidthFraction", bench::jsonNum(frac)}});
    bench::shapeRow("scrub_overhead",
                    "one pass over a 4GB channel within 1% of 0.4 s",
                    std::fabs(pass / 0.4 - 1.0) <= 0.01,
                    TextTable::num(pass, 3) + " s");
    bench::shapeRow("scrub_overhead",
                    "bandwidth at 1 scrub / 4 h within 1% of 0.0167%",
                    std::fabs(frac / 0.0167e-2 - 1.0) <= 0.01,
                    TextTable::pct(frac, 5));

    // Functional demonstration: scrub a small memory with one device
    // fault and a hidden stuck-at fault, on the sharded sweep.
    std::printf("\nFunctional scrub of a 512KB ARCC memory with one "
                "corrupt device and one hidden stuck-at cell\n"
                "(Scrubber::scrubParallel):\n");
    ArccMemory mem(FunctionalConfig::arccSmall());
    Rng rng(99);
    for (std::uint64_t addr = 0; addr < mem.capacity();
         addr += kLineBytes) {
        std::vector<std::uint8_t> line(kLineBytes);
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        mem.write(addr, line);
    }
    Scrubber scrubber;
    scrubber.bootScrubParallel(mem);

    FunctionalFault dead;
    dead.channel = 0;
    dead.rank = 1;
    dead.device = 6;
    dead.scope = FaultScope::Device;
    dead.kind = FaultKind::Corrupt;
    mem.injectFault(dead);

    FunctionalFault stuck;
    stuck.channel = 1;
    stuck.rank = 0;
    stuck.device = 2;
    stuck.scope = FaultScope::Row;
    stuck.bank = 0;
    stuck.row = 3;
    stuck.kind = FaultKind::StuckAt1;
    mem.injectFault(stuck);

    ScrubReport rep = scrubber.scrubParallel(mem);
    double upgraded = mem.pageTable().upgradedFraction();
    TextTable s;
    s.header({"Scrub statistic", "Value"});
    s.row({"Lines scrubbed", std::to_string(rep.linesScrubbed)});
    s.row({"Symbols corrected", std::to_string(rep.errorsCorrected)});
    s.row({"Stuck-at-1 detections",
           std::to_string(rep.stuckAt1Found)});
    s.row({"Faulty pages found",
           std::to_string(rep.faultyPages.size())});
    s.row({"Pages upgraded", std::to_string(rep.pagesUpgraded)});
    s.row({"Upgraded fraction", TextTable::pct(upgraded, 2)});
    s.print();
    bench::jsonRow(
        "scrub_overhead_functional",
        {{"linesScrubbed", bench::jsonNum(rep.linesScrubbed)},
         {"errorsCorrected", bench::jsonNum(rep.errorsCorrected)},
         {"duesFound", bench::jsonNum(rep.duesFound)},
         {"stuckAt1Found", bench::jsonNum(rep.stuckAt1Found)},
         {"stuckAt0Found", bench::jsonNum(rep.stuckAt0Found)},
         {"faultyPages",
          bench::jsonNum(
              static_cast<std::uint64_t>(rep.faultyPages.size()))},
         {"pagesUpgraded", bench::jsonNum(rep.pagesUpgraded)},
         {"upgradedFraction", bench::jsonNum(upgraded)}});
    const std::uint64_t faulty = rep.faultyPages.size();
    bench::shapeRow("scrub_overhead",
                    "the scrub upgrades every faulty page, with no DUE",
                    faulty > 0 && rep.pagesUpgraded == faulty &&
                        rep.duesFound == 0,
                    std::to_string(rep.pagesUpgraded) + " of " +
                        std::to_string(faulty) + " pages, " +
                        std::to_string(rep.duesFound) + " DUEs");
    return bench::exitStatus();
}

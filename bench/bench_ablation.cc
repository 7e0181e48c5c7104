/**
 * @file
 * Ablation studies for the design choices the paper discusses:
 *
 *  - LLC design: the paper's paired-tag LLC vs the sectored cache it
 *    rejects (Section 4.2.3) on a low-spatial-locality mix.
 *  - Memory-controller pairing: strict-FIFO sub-line queue vs the
 *    pointer / promotion design (Section 4.2.4), under a lane fault
 *    where every access is paired.
 *  - Address mapping policy (Section 4.1 / 7.1).
 *  - Rank power-down (part of the power story).
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"

using namespace arcc;

int
main()
{
    bench::reportHost();
    printBanner("Ablation studies");
    SystemConfig base = bench::systemConfig(arccConfig());
    auto lane = PageUpgradeOracle::forScenario(
        PageUpgradeOracle::Scenario::Lane, base.mem);
    const WorkloadMix &pointer_mix = table73Mixes()[9];  // mcf-heavy.
    const WorkloadMix &stream_mix = table73Mixes()[0];   // spatial.

    // --- LLC design -----------------------------------------------------
    {
        TextTable t;
        t.header({"LLC design", "Mix", "IPC sum (lane fault)",
                  "LLC miss rate"});
        for (bool sectored : {false, true}) {
            for (const WorkloadMix *mix : {&pointer_mix, &stream_mix}) {
                SystemConfig cfg = base;
                cfg.sectoredLlc = sectored;
                SimResult r = simulateMix(*mix, cfg, lane);
                t.row({sectored ? "sectored" : "paired-tag (paper)",
                       mix->name, TextTable::num(r.ipcSum, 3),
                       TextTable::num(r.llcStats.missRate(), 3)});
            }
        }
        std::printf("LLC design under a lane fault (all pages "
                    "upgraded):\n");
        t.print();
        std::printf("\n");
    }

    // --- pairing policy ---------------------------------------------------
    {
        // A device fault upgrades half the pages, so paired and
        // relaxed traffic interleave -- the state where the strict
        // FIFO sub-line queue can block relaxed requests behind a
        // waiting pair and the pointer design cannot.
        auto device = PageUpgradeOracle::forScenario(
            PageUpgradeOracle::Scenario::Device, base.mem);
        TextTable t;
        t.header({"Sub-line pairing", "IPC sum (device fault)",
                  "Power mW"});
        for (auto policy : {PairingPolicy::FifoPartition,
                            PairingPolicy::Pointer}) {
            SystemConfig cfg = base;
            cfg.ctrl.pairing = policy;
            SimResult r = simulateMix(pointer_mix, cfg, device);
            t.row({policy == PairingPolicy::FifoPartition
                       ? "strict FIFO partition"
                       : "pointer / promotion",
                   TextTable::num(r.ipcSum, 3),
                   TextTable::num(r.avgPowerMw, 0)});
        }
        std::printf("Memory-controller pairing designs "
                    "(Section 4.2.4), %s with half the pages "
                    "upgraded:\n", pointer_mix.name.c_str());
        t.print();
        std::printf("(under FCFS scheduling the two designs differ "
                    "only marginally, which is why the paper\n"
                    "offers both as acceptable implementations)\n\n");
    }

    // --- mapping policy ---------------------------------------------------
    {
        TextTable t;
        t.header({"Address map", "IPC sum", "Power mW"});
        for (auto [policy, name] :
             {std::pair{MapPolicy::HiPerf, "high performance (paper)"},
              {MapPolicy::ClosePage, "close page"},
              {MapPolicy::Base, "base"}}) {
            SystemConfig cfg = base;
            cfg.mapPolicy = policy;
            // The Base map keeps adjacent lines in one channel, so
            // paired upgrades are impossible; run fault-free.
            SimResult r = simulateMix(stream_mix, cfg, {});
            t.row({name, TextTable::num(r.ipcSum, 3),
                   TextTable::num(r.avgPowerMw, 0)});
        }
        std::printf("Address mapping policy (fault-free, %s):\n",
                    stream_mix.name.c_str());
        t.print();
        std::printf("\n");
    }

    // --- power-down ---------------------------------------------------------
    {
        TextTable t;
        t.header({"Rank power-down", "Baseline mW", "ARCC mW",
                  "ARCC saving"});
        for (bool pd : {true, false}) {
            SystemConfig bc = bench::systemConfig(baselineConfig());
            SystemConfig ac = base;
            bc.ctrl.enablePowerDown = pd;
            ac.ctrl.enablePowerDown = pd;
            SimResult rb = simulateMix(stream_mix, bc, {});
            SimResult ra = simulateMix(stream_mix, ac, {});
            t.row({pd ? "enabled" : "disabled",
                   TextTable::num(rb.avgPowerMw, 0),
                   TextTable::num(ra.avgPowerMw, 0),
                   TextTable::pct(1.0 - ra.avgPowerMw /
                                            rb.avgPowerMw)});
        }
        std::printf("Rank power-down contribution to the power story "
                    "(%s):\n", stream_mix.name.c_str());
        t.print();
    }
    return 0;
}

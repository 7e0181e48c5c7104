/**
 * @file
 * arcc_sim -- command-line driver for custom performance-plane
 * experiments: pick a configuration, a Table 7.3 mix (or a trace), a
 * fault scenario, and a budget; get power and performance.
 *
 * Usage:
 *   arcc_sim [--config baseline|arcc|arcc4|arcc8] [--mix MixN]
 *            [--fault none|lane|device|bank|column]
 *            [--fraction F] [--instrs N] [--sectored]
 *            [--trace file1,file2,file3,file4]
 *
 * Examples:
 *   arcc_sim --config arcc --mix Mix7 --fault device
 *   arcc_sim --config baseline --mix Mix1 --instrs 5000000
 */

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "common/parse_num.hh"
#include "common/table.hh"
#include "cpu/system_sim.hh"
#include "cpu/trace.hh"

using namespace arcc;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--config %s] [--mix MixN]\n"
        "          [--fault %s]\n"
        "          [--fraction F] [--instrs N] [--sectored]\n"
        "          [--trace f1,f2,f3,f4]\n",
        argv0, kMemoryConfigNames, PageUpgradeOracle::kScenarioNames);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string config_name = "arcc";
    std::string mix_name = "Mix1";
    std::string fault = "none";
    std::string trace_arg;
    double fraction = -1.0;
    SystemConfig cfg;
    cfg.instrsPerCore = 1'000'000;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (a == "--config")
            config_name = need("--config");
        else if (a == "--mix")
            mix_name = need("--mix");
        else if (a == "--fault")
            fault = need("--fault");
        else if (a == "--fraction")
            fraction = parseDouble("--fraction", need("--fraction"));
        else if (a == "--instrs")
            cfg.instrsPerCore = parseU64("--instrs",
                                         need("--instrs"));
        else if (a == "--sectored")
            cfg.sectoredLlc = true;
        else if (a == "--trace")
            trace_arg = need("--trace");
        else {
            usage(argv[0]);
            return a == "--help" ? 0 : 1;
        }
    }

    if (fraction != -1.0 && (fraction < 0.0 || fraction > 1.0))
        fatal("--fraction %g: need a page fraction in [0, 1]",
              fraction);

    const MemoryConfigPreset preset = memoryConfigPreset(config_name);
    if (!preset)
        fatal("unknown --config '%s' (%s)", config_name.c_str(),
              kMemoryConfigNames);
    cfg.mem = preset();

    const std::optional<PageUpgradeOracle::Scenario> scenario =
        PageUpgradeOracle::scenarioByName(fault);
    if (!scenario)
        fatal("unknown --fault '%s' (%s)", fault.c_str(),
              PageUpgradeOracle::kScenarioNames);
    const PageUpgradeOracle oracle =
        fraction >= 0.0
            ? PageUpgradeOracle::forFraction(fraction)
            : PageUpgradeOracle::forScenario(*scenario, cfg.mem);

    SimResult res;
    if (!trace_arg.empty()) {
        // Four trace files, one per core; text or binary (the
        // factory auto-detects the format by the magic and streams
        // binary traces at O(chunk) memory).
        std::vector<StreamSpec> streams;
        std::stringstream ss(trace_arg);
        std::string path;
        while (std::getline(ss, path, ','))
            streams.push_back(traceStreamSpec(path, /*baseIpc=*/1.0));
        if (streams.size() != 4)
            fatal("--trace needs exactly 4 comma-separated files");
        res = simulateStreams(std::move(streams), cfg, oracle);
    } else {
        const WorkloadMix *mix = mixByName(mix_name);
        if (!mix)
            fatal("unknown --mix '%s' (Mix1..Mix12)", mix_name.c_str());
        res = simulateMix(*mix, cfg, oracle);
    }

    std::printf("config: %s   workload: %s   fault: %s   upgraded "
                "pages: %.2f%%\n\n",
                cfg.mem.name.c_str(),
                trace_arg.empty() ? mix_name.c_str() : "trace",
                fault.c_str(), oracle.expectedFraction() * 100.0);

    TextTable t;
    t.header({"Core", "Workload", "Instrs", "IPC", "LLC miss rate"});
    for (std::size_t i = 0; i < res.cores.size(); ++i) {
        const CoreResult &c = res.cores[i];
        double mr = c.llcAccesses
                        ? static_cast<double>(c.llcMisses) /
                              static_cast<double>(c.llcAccesses)
                        : 0.0;
        t.row({std::to_string(i), c.benchmark,
               std::to_string(c.instrs), TextTable::num(c.ipc, 3),
               TextTable::num(mr, 3)});
    }
    t.print();

    std::printf("\nIPC sum          : %.3f\n", res.ipcSum);
    std::printf("elapsed          : %.3f ms\n", res.elapsedNs / 1e6);
    std::printf("memory power     : %.0f mW  (dynamic %.0f / "
                "background %.0f / refresh %.0f)\n",
                res.avgPowerMw,
                res.power.dynamicNj / res.elapsedNs * 1e3,
                res.power.backgroundNj / res.elapsedNs * 1e3,
                res.power.refreshNj / res.elapsedNs * 1e3);
    std::printf("memory traffic   : %llu reads, %llu writes\n",
                static_cast<unsigned long long>(res.memReads),
                static_cast<unsigned long long>(res.memWrites));
    return 0;
}

/**
 * @file
 * Trace workloads through the system simulator.
 *
 * The paper drives its memory system with M5-captured SPEC traces;
 * this walkthrough shows the equivalent pipeline here:
 *
 *  1. capture a synthetic quad-core mix into per-core *text* traces
 *     (the format a PIN tool or gem5 exporter would produce);
 *  2. convert them to the fixed-record binary format (convertTrace)
 *     -- 16 bytes per access;
 *  3. replay them through simulateStreams via traceStreamSpec, which
 *     streams the file in O(chunk) resident memory, at 2, 4, and 8
 *     memory channels;
 *  4. mix a trace-driven core with live synthetic cores in one run.
 *
 * With trace files of your own, pass up to four paths on the command
 * line (text or binary, auto-detected) and step 1 is skipped:
 *
 *     ./build/trace_sim [trace0 [trace1 [trace2 [trace3]]]]
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/table.hh"
#include "cpu/trace.hh"

using namespace arcc;

namespace
{

/** Capture one synthetic core into a text trace file. */
std::string
captureCore(const std::filesystem::path &dir, const SystemConfig &cfg,
            const std::string &bench, int core)
{
    AddressMap map(cfg.mem, cfg.mapPolicy);
    std::string path =
        (dir / (bench + "." + std::to_string(core) + ".trace")).string();
    std::uint64_t count = captureSyntheticTrace(
        bench, map.capacity(), core, mixCoreSeed(cfg.seed, core),
        cfg.instrsPerCore, path, /*binary=*/false);
    std::printf("  captured %8llu accesses of %-10s -> %s\n",
                static_cast<unsigned long long>(count), bench.c_str(),
                path.c_str());
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    printBanner("Trace replay through the system simulator");

    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 200'000;
    cfg.seed = 20130223;
    const WorkloadMix &mix = table73Mixes()[8];

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("arcc_trace_sim." + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);

    // Step 1: per-core trace files (yours, or captured synthetics).
    std::vector<std::string> texts;
    for (int core = 0; core < cfg.cores; ++core) {
        if (core + 1 < argc)
            texts.push_back(argv[core + 1]);
        else
            texts.push_back(captureCore(dir, cfg,
                                        mix.benchmarks[core], core));
    }

    // Step 2: text -> binary.  A binary record is a fixed 16 bytes,
    // so the file replays without parsing; TraceStream holds one
    // chunk of either format.  convertTrace reads both formats, so a
    // trace that is binary already is copied as is.
    std::vector<std::string> bins;
    for (const std::string &text : texts) {
        std::string bin =
            (dir / std::filesystem::path(text).filename())
                .string() + ".bin";
        std::uint64_t n = convertTrace(text, bin, /*binary=*/true);
        std::printf("  %s: %llu records, %ju -> %ju bytes\n",
                    bin.c_str(), static_cast<unsigned long long>(n),
                    static_cast<std::uintmax_t>(
                        std::filesystem::file_size(text)),
                    static_cast<std::uintmax_t>(
                        std::filesystem::file_size(bin)));
        bins.push_back(bin);
    }

    // Step 3: replay at 2 / 4 / 8 channels.
    std::printf("\n");
    TextTable t;
    t.header({"Channels", "IPC sum", "Elapsed us", "DRAM mW",
              "Mem reads", "Laps/core"});
    for (int channels : {2, 4, 8}) {
        SystemConfig ccfg = cfg;
        ccfg.mem = withChannels(cfg.mem, channels);

        std::vector<StreamSpec> streams;
        for (int core = 0; core < ccfg.cores; ++core) {
            StreamSpec spec = traceStreamSpec(
                bins[core],
                benchmarkProfile(mix.benchmarks[core]).baseIpc);
            streams.push_back(std::move(spec));
        }
        SimResult r = simulateStreams(std::move(streams), ccfg, {});
        std::uint64_t laps = 0;
        for (const CoreResult &core : r.cores)
            laps += core.traceLaps;
        t.row({std::to_string(channels), TextTable::num(r.ipcSum, 3),
               TextTable::num(r.elapsedNs / 1000.0, 1),
               TextTable::num(r.avgPowerMw, 0),
               std::to_string(r.memReads),
               TextTable::num(static_cast<double>(laps) /
                                  r.cores.size(), 2)});
    }
    t.print();

    // Step 4: traces and synthetics mix freely in one run.
    std::printf("\nMixed run: core 0 replays %s, cores 1-3 run live "
                "generators.\n", bins[0].c_str());
    AddressMap map(cfg.mem, cfg.mapPolicy);
    std::vector<StreamSpec> mixed;
    mixed.push_back(traceStreamSpec(
        bins[0], benchmarkProfile(mix.benchmarks[0]).baseIpc));
    for (int core = 1; core < cfg.cores; ++core)
        mixed.push_back(syntheticStreamSpec(
            mix.benchmarks[core], map.capacity(), core,
            mixCoreSeed(cfg.seed, core)));
    SimResult r = simulateStreams(std::move(mixed), cfg, {});
    for (const CoreResult &core : r.cores)
        std::printf("  %-28s IPC %.3f  (%llu laps)\n",
                    core.benchmark.c_str(), core.ipc,
                    static_cast<unsigned long long>(core.traceLaps));

    std::filesystem::remove_all(dir);
    return 0;
}

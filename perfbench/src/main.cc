/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--arccd PATH] [--work-dir DIR] [--rev REV]
 *             [--src-digest HEX]
 *
 * NAME is figsweep, scrub_rw, fleet or arccd.  Prints an environment
 * stamp, human-readable notes, and as the last line one JSON object
 * {"correct","attempted","failed","metrics"}: end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1 (spans are then written
 * to DIR).  Exit status: 0 success, 1 a wrong output, 2 bad usage or a
 * refused build.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/parse_num.hh"
#include "harness.hh"
#include "probes.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload figsweep|scrub_rw|fleet|arccd "
                 "--seed N --seconds S --trace 0|1\n"
                 "          [--arccd PATH] [--work-dir DIR] [--rev REV] "
                 "[--src-digest HEX]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        const std::string a = argv[i];
        if (a == "--workload")
            options.workload = value();
        else if (a == "--seed")
            options.seed = arcc::parseU64("--seed", value());
        else if (a == "--seconds")
            options.seconds = arcc::parseDouble("--seconds", value());
        else if (a == "--trace")
            options.trace = arcc::parseU64("--trace", value()) != 0;
        else if (a == "--arccd")
            options.arccdPath = value();
        else if (a == "--work-dir")
            options.workDir = value();
        else if (a == "--rev")
            options.rev = value();
        else if (a == "--src-digest")
            options.srcDigest = value();
        else
            usage(argv[0]);
    }
    if (options.seconds <= 0 || options.seconds > 600)
        usage(argv[0]);

    std::string why;
    if (!benchmarkableBuild(why)) {
        std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                     why.c_str());
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(options.workDir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     options.workDir.c_str(), ec.message().c_str());
        return 2;
    }
    if (options.arccdPath.empty())
        options.arccdPath =
            (std::filesystem::path(argv[0]).parent_path() / "arccd").string();

    using Runner = Outcome (*)(const Options &, SpanLog &);
    Runner run = nullptr;
    if (options.workload == "figsweep")
        run = runFigsweep;
    else if (options.workload == "scrub_rw")
        run = runScrubRw;
    else if (options.workload == "fleet")
        run = runFleet;
    else if (options.workload == "arccd")
        run = runArccd;
    else
        usage(argv[0]);

    std::printf("env %s\n", environmentJson(options).c_str());
    std::fflush(stdout);

    SpanLog spans;
    Outcome out = run(options, spans);
    if (options.trace) {
        spans.enable(true);
        probeRemainingLayers(options, spans, out);
        const std::string path = options.workDir + "/" + options.workload +
                                 "-seed" + std::to_string(options.seed) +
                                 ".spans.jsonl";
        if (spans.write(path))
            out.note("spans: " + std::to_string(spans.size()) + " in " +
                     path);
    }
    for (const std::string &line : out.notes)
        std::printf("%s\n", line.c_str());
    std::printf("fail_frac %.6g (%llu of %llu operations failed)\n",
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 1.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    std::printf("%s\n", resultLine(out, options.trace).c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
}

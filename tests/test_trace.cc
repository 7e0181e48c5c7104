/**
 * @file
 * Trace capture / replay tests: the hardened text parser (CRLF,
 * whitespace, comment-only files, every error path), the binary
 * format and its converter, the streaming TraceStream reader of both
 * formats, and end-to-end runs of the system simulator on replayed
 * traces.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unistd.h>
#include <utility>

#include "cpu/system_sim.hh"
#include "cpu/trace.hh"

namespace arcc
{
namespace
{

/** Unique temp-file path (ctest -j runs sibling tests concurrently). */
std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("arcc_test_trace." + tag + "." +
             std::to_string(::getpid())))
        .string();
}

/** RAII deleter so failed assertions do not leak temp files. */
struct TempFile
{
    explicit TempFile(std::string p) : path(std::move(p)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

std::vector<CoreWorkload::Access>
syntheticAccesses(int n, std::uint64_t seed)
{
    CoreWorkload wl(benchmarkProfile("swim"), 1ULL << 30, 0, seed);
    std::vector<CoreWorkload::Access> out;
    for (int i = 0; i < n; ++i)
        out.push_back(wl.next());
    return out;
}

/** Write `bytes` to `path` as they are. */
void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The bytes of the file at `path`. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeTrace(const std::string &path,
           const std::vector<CoreWorkload::Access> &accesses,
           bool binary)
{
    std::ofstream out(path, std::ios::binary);
    TraceWriter writer(out, binary);
    for (const auto &a : accesses)
        writer.append(a);
}

/** One lap of the trace file at `path`, through TraceStream. */
std::vector<CoreWorkload::Access>
readTrace(const std::string &path)
{
    std::string error;
    const std::unique_ptr<TraceStream> stream =
        TraceStream::open(path, error);
    EXPECT_TRUE(stream) << error;
    std::vector<CoreWorkload::Access> out;
    for (std::uint64_t i = 0; stream && i < stream->records(); ++i)
        out.push_back(stream->next());
    return out;
}

void
expectSameAccesses(const std::vector<CoreWorkload::Access> &a,
                   const std::vector<CoreWorkload::Access> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].isWrite, b[i].isWrite) << i;
        EXPECT_EQ(a[i].instrGap, b[i].instrGap) << i;
    }
}

// --- text format -------------------------------------------------------

TEST(Trace, WriteParseRoundTrip)
{
    TempFile text(tempPath("roundtrip.txt"));
    auto original = syntheticAccesses(500, 5);
    {
        std::ofstream out(text.path);
        TraceWriter writer(out, /*binary=*/false);
        for (const auto &a : original)
            writer.append(a);
        EXPECT_EQ(writer.count(), 500u);
    }
    expectSameAccesses(readTrace(text.path), original);
}

TEST(Trace, CommentsAndBlankLinesAreSkipped)
{
    TempFile text(tempPath("comments.txt"));
    writeFile(text.path,
              "# a comment\n\n1000 R 5\n# another\n2040 W 17\n");
    auto parsed = readTrace(text.path);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].addr, 0x1000u);
    EXPECT_FALSE(parsed[0].isWrite);
    EXPECT_EQ(parsed[0].instrGap, 5u);
    EXPECT_EQ(parsed[1].addr, 0x2040u);
    EXPECT_TRUE(parsed[1].isWrite);
}

TEST(Trace, ToleratesCrlfWhitespaceAndIndentedComments)
{
    // A Windows-edited trace: CRLF endings, trailing whitespace,
    // indented fields, whitespace-only lines, indented comments, tab
    // separators, and a 0x-prefixed address all parse to the same
    // accesses.
    TempFile text(tempPath("crlf.txt"));
    writeFile(text.path, "1000 R 5\r\n"
                         "2040 W 17   \n"
                         "   \t \r\n"
                         "  # indented comment\r\n"
                         "\t3080\tr\t2\r\n"
                         "   40c0 w 9\n"
                         "0X50C0 R 3\r\n");
    auto parsed = readTrace(text.path);
    ASSERT_EQ(parsed.size(), 5u);
    EXPECT_EQ(parsed[0].addr, 0x1000u);
    EXPECT_EQ(parsed[0].instrGap, 5u);
    EXPECT_EQ(parsed[1].addr, 0x2040u);
    EXPECT_TRUE(parsed[1].isWrite);
    EXPECT_EQ(parsed[2].addr, 0x3080u);
    EXPECT_FALSE(parsed[2].isWrite);
    EXPECT_EQ(parsed[3].addr, 0x40c0u);
    EXPECT_EQ(parsed[3].instrGap, 9u);
    EXPECT_EQ(parsed[4].addr, 0x50c0u);
}

TEST(Trace, CommentOnlyFileParsesToNothing)
{
    // Nothing to replay is an error of the open, not an empty replay.
    TempFile text(tempPath("comment_only.txt"));
    writeFile(text.path, "# header\n\n   \n# only comments here\r\n");
    std::string error;
    EXPECT_FALSE(TraceStream::open(text.path, error));
    EXPECT_NE(error.find("contains no accesses"), std::string::npos)
        << error;
}

TEST(TraceDeathTest, MalformedLinesAreFatal)
{
    TempFile text(tempPath("malformed.txt"));
    const std::pair<const char *, const char *> cases[] = {
        {"zzz\n", "malformed"},
        {"1000 X 5\n", "not R or W"},
        {"zzz R 5\n", "not a hex address"},
        {"1000 R 5 junk\n", "trailing garbage"},
        {"1000 R -5\n", "not an instruction gap"},
        {"1000 R gap\n", "not an instruction gap"},
        // A signed address must not wrap to a huge value.
        {"-1000 R 5\n", "not a hex address"},
    };
    for (const auto &[line, message] : cases) {
        SCOPED_TRACE(line);
        writeFile(text.path, line);
        EXPECT_EXIT(traceStreamSpec(text.path, 1.0),
                    ::testing::ExitedWithCode(1), message);
    }
}

TEST(TraceDeathTest, WriteFailuresAreFatal)
{
    // A stream that went bad mid-capture (disk full) must be
    // diagnosed at the failing append, not discovered as a truncated
    // file at replay time.
    std::ostringstream text;
    TraceWriter tw(text, /*binary=*/false);
    text.setstate(std::ios::badbit);
    EXPECT_EXIT(tw.append({}), ::testing::ExitedWithCode(1),
                "write failed");

    std::ostringstream bin;
    TraceWriter bw(bin, /*binary=*/true);
    bin.setstate(std::ios::badbit);
    EXPECT_EXIT(bw.append({}), ::testing::ExitedWithCode(1),
                "write failed");

    EXPECT_EXIT(captureSyntheticTrace("swim", 1ULL << 30, 0, 1, 1000,
                                      "/nonexistent/capture.bin"),
                ::testing::ExitedWithCode(1), "cannot create");
}

TEST(TraceDeathTest, UnopenableFileIsFatal)
{
    EXPECT_EXIT(traceStreamSpec("/nonexistent/trace.txt", 1.0),
                ::testing::ExitedWithCode(1), "cannot be opened");
}

TEST(TraceDeathTest, EmptyReplayIsFatal)
{
    // A zero-byte file is a text trace with nothing to replay.
    TempFile empty(tempPath("zero_bytes.txt"));
    writeFile(empty.path, "");
    EXPECT_EXIT(traceStreamSpec(empty.path, 1.0),
                ::testing::ExitedWithCode(1), "no accesses");
}

// --- binary format -----------------------------------------------------

TEST(BinaryTrace, RoundTripsThroughTextConverters)
{
    auto original = syntheticAccesses(700, 9);
    TempFile text1(tempPath("rt1.txt"));
    TempFile bin(tempPath("rt.bin"));
    TempFile text2(tempPath("rt2.txt"));
    writeTrace(text1.path, original, /*binary=*/false);

    // text -> binary -> text is bit-identical (canonical text in,
    // canonical text out), and the binary reads as the same accesses.
    EXPECT_EQ(convertTrace(text1.path, bin.path, /*binary=*/true), 700u);
    EXPECT_EQ(convertTrace(bin.path, text2.path, /*binary=*/false),
              700u);
    EXPECT_EQ(fileBytes(text1.path), fileBytes(text2.path));
    expectSameAccesses(readTrace(bin.path), original);
}

TEST(BinaryTrace, WriterProducesFixedSizeRecords)
{
    std::ostringstream out;
    TraceWriter writer(out, /*binary=*/true);
    auto accesses = syntheticAccesses(100, 3);
    for (const auto &a : accesses)
        writer.append(a);
    EXPECT_EQ(writer.count(), 100u);
    EXPECT_EQ(out.str().size(),
              sizeof kTraceMagic + 100 * kTraceRecordBytes);
    EXPECT_EQ(out.str().compare(0, 8, "ARCCTRC1"), 0);
}

TEST(BinaryTrace, ExtremeFieldValuesSurvive)
{
    CoreWorkload::Access a;
    a.addr = ~0ULL;
    a.instrGap = (1ULL << 63) - 1;
    a.isWrite = true;
    TempFile bin(tempPath("extreme.bin"));
    TempFile text(tempPath("extreme.txt"));
    writeTrace(bin.path, {a}, /*binary=*/true);
    EXPECT_EQ(convertTrace(bin.path, text.path, /*binary=*/false), 1u);
    auto parsed = readTrace(text.path);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].addr, a.addr);
    EXPECT_EQ(parsed[0].instrGap, a.instrGap);
    EXPECT_TRUE(parsed[0].isWrite);
}

TEST(BinaryTraceDeathTest, OversizedGapIsFatal)
{
    CoreWorkload::Access a;
    a.instrGap = 1ULL << 63; // collides with the write flag.
    std::ostringstream bin;
    TraceWriter writer(bin, /*binary=*/true);
    EXPECT_EXIT(writer.append(a), ::testing::ExitedWithCode(1),
                "does not fit");
}

TEST(BinaryTraceDeathTest, BadMagicAndTruncationAreFatal)
{
    // Without its magic a binary trace is read as text, and its record
    // bytes are not a valid text line either.
    std::ostringstream bin;
    TraceWriter writer(bin, /*binary=*/true);
    writer.append({});
    std::string mangled = bin.str();
    mangled[sizeof kTraceMagic - 1] = '2';
    TempFile in(tempPath("mangled.bin"));
    TempFile out(tempPath("mangled.txt"));
    writeFile(in.path, mangled);
    EXPECT_EXIT(convertTrace(in.path, out.path, /*binary=*/false),
                ::testing::ExitedWithCode(1), "line 1: malformed");

    writeFile(in.path, bin.str().substr(
                           0, sizeof kTraceMagic + kTraceRecordBytes / 2));
    EXPECT_EXIT(convertTrace(in.path, out.path, /*binary=*/false),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(BinaryTrace, FileConvertersAndDetection)
{
    auto original = syntheticAccesses(256, 11);
    TempFile text(tempPath("convert.txt"));
    TempFile bin(tempPath("convert.bin"));
    TempFile back(tempPath("convert.back.txt"));
    writeTrace(text.path, original, /*binary=*/false);
    EXPECT_EQ(convertTrace(text.path, bin.path, /*binary=*/true), 256u);
    // The magic tells the formats apart: the binary file opens with
    // it, the text file does not, and both read back the same.
    EXPECT_EQ(fileBytes(bin.path).compare(0, 8, "ARCCTRC1"), 0);
    EXPECT_NE(fileBytes(text.path).compare(0, 8, "ARCCTRC1"), 0);
    EXPECT_EQ(convertTrace(bin.path, back.path, /*binary=*/false),
              256u);
    expectSameAccesses(readTrace(bin.path), original);
    expectSameAccesses(readTrace(back.path), original);
}

// --- TraceStream -------------------------------------------------------

TEST(TraceReplay, LoopsAtTheEnd)
{
    std::vector<CoreWorkload::Access> v(3);
    v[0].addr = 0;
    v[1].addr = 64;
    v[2].addr = 128;
    for (bool binary : {false, true}) {
        SCOPED_TRACE(binary ? "binary" : "text");
        TempFile file(tempPath(binary ? "loop.bin" : "loop.txt"));
        writeTrace(file.path, v, binary);
        std::string error;
        const std::unique_ptr<TraceStream> stream =
            TraceStream::open(file.path, error);
        ASSERT_TRUE(stream) << error;
        for (int lap = 0; lap < 3; ++lap)
            for (const CoreWorkload::Access &a : v)
                EXPECT_EQ(stream->next().addr, a.addr);
        EXPECT_EQ(stream->laps(), 3u);
    }
}

TEST(TraceStream, MatchesTraceReplayAtEveryChunkSize)
{
    // Both formats replay the source accesses in order, lap after
    // lap, with the lap closing on the final record, including at
    // chunk sizes that straddle the wrap point mid-buffer.
    auto original = syntheticAccesses(97, 13);
    for (bool binary : {false, true}) {
        TempFile file(tempPath(binary ? "stream.bin" : "stream.txt"));
        writeTrace(file.path, original, binary);
        for (std::size_t chunk : {std::size_t{1}, std::size_t{8},
                                  std::size_t{97}, std::size_t{1000}}) {
            SCOPED_TRACE(std::string(binary ? "binary" : "text") +
                         " chunk=" + std::to_string(chunk));
            std::string error;
            const std::unique_ptr<TraceStream> stream =
                TraceStream::open(file.path, error, chunk);
            ASSERT_TRUE(stream) << error;
            EXPECT_EQ(stream->records(), original.size());
            for (std::size_t i = 0; i < 300; ++i) {
                const CoreWorkload::Access &a =
                    original[i % original.size()];
                CoreWorkload::Access b = stream->next();
                EXPECT_EQ(a.addr, b.addr) << i;
                EXPECT_EQ(a.isWrite, b.isWrite) << i;
                EXPECT_EQ(a.instrGap, b.instrGap) << i;
                EXPECT_EQ(stream->laps(), (i + 1) / original.size())
                    << i;
            }
            EXPECT_EQ(stream->laps(), 3u);
        }
    }
}

TEST(TraceStream, OpenReportsBadTracesAsErrors)
{
    // Every bad trace comes back from open() as nullptr and a message
    // that names the file and the problem; nothing exits.
    std::ostringstream bin;
    TraceWriter writer(bin, /*binary=*/true);
    writer.append({});
    std::string mangled = bin.str();
    mangled[sizeof kTraceMagic - 1] = '2';
    const std::pair<std::string, std::string> cases[] = {
        {"1000 R 5\nzzz R 5\n", "line 2: 'zzz' is not a hex address"},
        {"1000 R 5\n1000 X 5\n", "line 2: access type 'X' is not R"},
        {"1000 R 5\n2040 W 9223372036854775808\n",
         "line 2: instruction gap '9223372036854775808' does not fit"},
        {"1000 R 5 junk\n", "line 1: trailing garbage"},
        {"# only a comment\n\n", "contains no accesses"},
        {"", "contains no accesses"},
        {std::string(kTraceMagic, sizeof kTraceMagic),
         "contains no accesses"},
        {bin.str().substr(0, sizeof kTraceMagic + 3),
         "is truncated: 3 payload bytes"},
        // A reply must not carry raw bytes or a whole long line.
        {mangled, "line 1: malformed (expected <hex-addr> <R|W> "
                  "<instr-gap>): 'ARCCTRC2" +
                      std::string(kTraceRecordBytes, '?') + "'"},
        {std::string(50, 'f') + " R 5\n",
         "line 1: '" + std::string(40, 'f') + "...' is not a hex"},
    };
    TempFile file(tempPath("bad_trace"));
    const std::string named = "trace file '" + file.path + "' ";
    std::string error;
    for (const auto &[bytes, message] : cases) {
        SCOPED_TRACE(message);
        writeFile(file.path, bytes);
        EXPECT_FALSE(TraceStream::open(file.path, error));
        EXPECT_EQ(error.rfind(named, 0), 0u) << error;
        EXPECT_NE(error.find(message), std::string::npos) << error;
    }
    EXPECT_FALSE(TraceStream::open("/nonexistent/trace.txt", error));
    EXPECT_NE(error.find("cannot be opened"), std::string::npos)
        << error;

    // The largest gap a record holds is fine, and a good open clears
    // the error.
    writeFile(file.path, "1000 R 9223372036854775807\n");
    EXPECT_TRUE(TraceStream::open(file.path, error));
    EXPECT_TRUE(error.empty()) << error;
}

TEST(TraceStreamDeathTest, BadInputsAreFatal)
{
    EXPECT_EXIT(traceStreamSpec("/nonexistent/trace.bin", 1.0),
                ::testing::ExitedWithCode(1), "cannot be opened");

    // Without the magic a file is read as text, so a mangled header
    // is a malformed first line.
    TempFile mangled(tempPath("bad_magic.bin"));
    writeFile(mangled.path, "ARCCTRC2 junk\n");
    EXPECT_EXIT(traceStreamSpec(mangled.path, 1.0),
                ::testing::ExitedWithCode(1), "line 1: malformed");

    TempFile empty(tempPath("empty.bin"));
    writeTrace(empty.path, {}, /*binary=*/true); // magic, no records.
    EXPECT_EXIT(traceStreamSpec(empty.path, 1.0),
                ::testing::ExitedWithCode(1), "no accesses");

    TempFile truncated(tempPath("truncated.bin"));
    {
        std::ofstream out(truncated.path, std::ios::binary);
        TraceWriter writer(out, /*binary=*/true);
        writer.append({});
        out.write("x", 1); // half a record's worth of trailing junk.
    }
    EXPECT_EXIT(traceStreamSpec(truncated.path, 1.0),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(TraceStreamDeathTest, TornFinalRecordIsFatalAtEveryOffset)
{
    // A crash mid-append can cut the final record at any byte; every
    // cut must be diagnosed as truncation up front, never replayed as
    // a partial record.
    for (std::size_t cut = 1; cut < kTraceRecordBytes; ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        TempFile bin(tempPath("torn." + std::to_string(cut)));
        writeTrace(bin.path, syntheticAccesses(4, 23), /*binary=*/true);
        std::filesystem::resize_file(
            bin.path,
            sizeof kTraceMagic + 3 * kTraceRecordBytes + cut);
        EXPECT_EXIT(traceStreamSpec(bin.path, 1.0),
                    ::testing::ExitedWithCode(1), "torn final write");
    }
}

TEST(BinaryTraceDeathTest, TornFinalRecordIsFatalAtEveryOffset)
{
    // Same sweep through the converter.
    std::ostringstream bin;
    TraceWriter writer(bin, /*binary=*/true);
    for (const auto &a : syntheticAccesses(2, 29))
        writer.append(a);
    const std::string whole = bin.str();
    TempFile torn(tempPath("torn.bin"));
    TempFile text(tempPath("torn.txt"));
    for (std::size_t cut = 1; cut < kTraceRecordBytes; ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        writeFile(torn.path, whole.substr(0, sizeof kTraceMagic +
                                                 kTraceRecordBytes + cut));
        EXPECT_EXIT(convertTrace(torn.path, text.path, /*binary=*/false),
                    ::testing::ExitedWithCode(1), "torn final write");
    }
}

TEST(TraceStream, FileChangingMidReplayThrows)
{
    // A file cut under a running replay is an error of that replay,
    // not of the process: next() throws, naming the file.
    auto expectThrow = [](const std::string &path, std::uintmax_t keep,
                          const char *what) {
        std::string error;
        const auto stream = TraceStream::open(path, error, 8);
        ASSERT_TRUE(stream) << error;
        std::filesystem::resize_file(path, keep);
        try {
            for (int i = 0; i < 64; ++i)
                stream->next();
            ADD_FAILURE() << "no error after 64 records of " << path;
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(what), std::string::npos) << msg;
            EXPECT_NE(msg.find(path), std::string::npos) << msg;
        }
    };
    TempFile bin(tempPath("shrink.bin"));
    writeTrace(bin.path, syntheticAccesses(64, 17), /*binary=*/true);
    expectThrow(bin.path, sizeof kTraceMagic + kTraceRecordBytes,
                "shrank mid-replay");
    TempFile text(tempPath("shrink.txt"));
    writeTrace(text.path, syntheticAccesses(64, 17), /*binary=*/false);
    expectThrow(text.path, 0, "changed mid-replay: it ended early");
}

TEST(TraceStreamDeathTest, FileShrinkingMidReplayIsFatal)
{
    // traceStreamSpec(path) keeps the command-line contract: the
    // replay's error exits 1 with its message.
    TempFile bin(tempPath("shrink.bin"));
    writeTrace(bin.path, syntheticAccesses(64, 17), /*binary=*/true);
    EXPECT_EXIT(
        {
            const StreamSpec spec = traceStreamSpec(bin.path, 1.0, 8);
            std::filesystem::resize_file(
                bin.path, sizeof kTraceMagic + kTraceRecordBytes);
            for (int i = 0; i < 64; ++i)
                spec.next();
        },
        ::testing::ExitedWithCode(1), "shrank mid-replay");
}

// --- StreamSpec factories ----------------------------------------------

TEST(TraceStreamSpec, BinaryAndTextTracesProduceTheSameStream)
{
    auto original = syntheticAccesses(128, 19);
    TempFile text(tempPath("spec.txt"));
    TempFile bin(tempPath("spec.bin"));
    writeTrace(text.path, original, /*binary=*/false);
    convertTrace(text.path, bin.path, /*binary=*/true);

    StreamSpec from_text = traceStreamSpec(text.path, 1.5);
    StreamSpec from_bin = traceStreamSpec(bin.path, 1.5);
    ASSERT_TRUE(from_text.next && from_bin.next);
    ASSERT_TRUE(from_text.laps && from_bin.laps);
    for (int i = 0; i < 300; ++i) {
        CoreWorkload::Access a = from_text.next();
        CoreWorkload::Access b = from_bin.next();
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.isWrite, b.isWrite) << i;
        EXPECT_EQ(a.instrGap, b.instrGap) << i;
    }
    EXPECT_EQ(from_text.laps(), from_bin.laps());
    EXPECT_EQ(from_text.laps(), 2u);
    // The spec names are the file basenames.
    EXPECT_EQ(from_text.name.find("arcc_test_trace.spec.txt"), 0u);
}

TEST(TraceStreamSpecDeathTest, EmptyTextTraceIsFatal)
{
    TempFile text(tempPath("comments_only.txt"));
    {
        std::ofstream out(text.path);
        out << "# a trace with no accesses\n\n";
    }
    EXPECT_EXIT(traceStreamSpec(text.path, 1.0),
                ::testing::ExitedWithCode(1), "no accesses");
}

// --- end-to-end through the simulator ----------------------------------

TEST(TraceReplay, DrivesTheSystemSimulator)
{
    // Capture four synthetic streams into trace files, binary for
    // even cores and text for odd ones, replay them in small chunks,
    // and check the simulator produces the same result as the live
    // generators.
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 50'000;
    cfg.seed = 77;

    SimResult live = simulateMix(table73Mixes()[3], cfg, {});

    AddressMap map(cfg.mem, cfg.mapPolicy);
    std::deque<TempFile> files;
    std::vector<StreamSpec> streams;
    for (int i = 0; i < 4; ++i) {
        const BenchmarkProfile &prof =
            benchmarkProfile(table73Mixes()[3].benchmarks[i]);
        CoreWorkload wl(prof, map.capacity(), i,
                        mixCoreSeed(cfg.seed, i));
        std::vector<CoreWorkload::Access> recorded;
        std::uint64_t instrs = 0;
        while (instrs < cfg.instrsPerCore + 1000) {
            recorded.push_back(wl.next());
            instrs += recorded.back().instrGap;
        }
        files.emplace_back(tempPath("sim." + std::to_string(i)));
        writeTrace(files.back().path, recorded, /*binary=*/i % 2 == 0);
        streams.push_back(traceStreamSpec(files.back().path,
                                          prof.baseIpc,
                                          /*chunkRecords=*/256));
    }
    SimResult replayed = simulateStreams(std::move(streams), cfg, {});
    EXPECT_NEAR(replayed.ipcSum, live.ipcSum, 1e-9);
    EXPECT_NEAR(replayed.avgPowerMw, live.avgPowerMw, 1e-9);
    // The traces were captured past the budget, so no core wrapped;
    // the lap accounting still surfaces per core.
    for (const CoreResult &core : replayed.cores)
        EXPECT_EQ(core.traceLaps, 0u);
    for (const CoreResult &core : live.cores)
        EXPECT_EQ(core.traceLaps, 0u); // synthetic: no lap counter.
}

TEST(TraceStream, ShortTraceLapsSurfaceInTheSimResult)
{
    // A trace much shorter than the instruction budget wraps many
    // times; CoreResult::traceLaps reports it (the signal that the
    // run is repetition-dominated).
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 50'000;
    cfg.seed = 23;
    AddressMap map(cfg.mem, cfg.mapPolicy);

    TempFile bin(tempPath("short.bin"));
    std::uint64_t trace_instrs = 0;
    {
        CoreWorkload wl(benchmarkProfile("libquantum"),
                        map.capacity(), 0, cfg.seed);
        std::ofstream out(bin.path, std::ios::binary);
        TraceWriter writer(out, /*binary=*/true);
        for (int i = 0; i < 200; ++i) {
            CoreWorkload::Access a = wl.next();
            trace_instrs += a.instrGap;
            writer.append(a);
        }
    }

    std::vector<StreamSpec> streams;
    streams.push_back(traceStreamSpec(
        bin.path, benchmarkProfile("libquantum").baseIpc));
    for (int i = 1; i < cfg.cores; ++i)
        streams.push_back(syntheticStreamSpec(
            "sjeng", map.capacity(), i, cfg.seed + i));
    SimResult r = simulateStreams(std::move(streams), cfg, {});

    EXPECT_GE(r.cores[0].traceLaps,
              cfg.instrsPerCore / trace_instrs);
    EXPECT_EQ(r.cores[1].traceLaps, 0u);
    EXPECT_GE(r.cores[0].instrs, cfg.instrsPerCore);
}

TEST(TraceStream, ThrowingStreamLeavesTheSimulatorWithItsException)
{
    // A stream whose next() throws mid-run (a trace cut under the
    // replay) ends simulateStreams with that exception, which
    // SimService answers as an error response.
    struct StreamBroke : std::runtime_error
    {
        using std::runtime_error::runtime_error;
    };
    SystemConfig cfg;
    cfg.mem = arccConfig();
    cfg.instrsPerCore = 50'000;
    cfg.seed = 29;
    AddressMap map(cfg.mem, cfg.mapPolicy);
    std::vector<StreamSpec> streams;
    for (int i = 0; i < cfg.cores; ++i)
        streams.push_back(syntheticStreamSpec("sjeng", map.capacity(), i,
                                              cfg.seed + i));
    auto calls = std::make_shared<int>(0);
    streams[1].next = [next = streams[1].next, calls]() {
        if (++*calls == 20)
            throw StreamBroke("stream 1 broke at access 20");
        return next();
    };
    try {
        simulateStreams(std::move(streams), cfg, {});
        ADD_FAILURE() << "simulateStreams returned";
    } catch (const StreamBroke &e) {
        EXPECT_STREQ(e.what(), "stream 1 broke at access 20");
    }
    EXPECT_EQ(*calls, 20);
}

} // namespace
} // namespace arcc

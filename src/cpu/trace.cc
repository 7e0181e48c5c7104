/**
 * @file
 * Trace capture / replay implementation: the hardened text parser,
 * the 16-byte binary record codec, the streaming converters, and the
 * chunked TraceStream reader.
 */

#include "cpu/trace.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>

#include "common/logging.hh"

namespace arcc
{

namespace
{

/** Write flag: top bit of the gap word. */
constexpr std::uint64_t kWriteBit = 1ULL << 63;

/** Encode one access into a 16-byte little-endian record. */
void
encodeRecord(const CoreWorkload::Access &a, std::uint8_t *out)
{
    if (a.instrGap & kWriteBit)
        fatal("binary trace: instruction gap %llu does not fit the "
              "record's 63-bit field",
              static_cast<unsigned long long>(a.instrGap));
    std::uint64_t gap = a.instrGap | (a.isWrite ? kWriteBit : 0);
    for (int i = 0; i < 8; ++i) {
        out[i] = static_cast<std::uint8_t>(a.addr >> (8 * i));
        out[8 + i] = static_cast<std::uint8_t>(gap >> (8 * i));
    }
}

/** Decode one 16-byte little-endian record. */
CoreWorkload::Access
decodeRecord(const std::uint8_t *in)
{
    std::uint64_t addr = 0;
    std::uint64_t gap = 0;
    for (int i = 7; i >= 0; --i) {
        addr = (addr << 8) | in[i];
        gap = (gap << 8) | in[8 + i];
    }
    CoreWorkload::Access a;
    a.addr = addr;
    a.isWrite = (gap & kWriteBit) != 0;
    a.instrGap = gap & ~kWriteBit;
    return a;
}

/**
 * Parse one text trace line into `out`.
 * @return false when the line is skippable (blank, whitespace-only,
 *         or a comment); fatal() on anything malformed.
 */
bool
parseTraceLine(const std::string &line, std::uint64_t line_no,
               CoreWorkload::Access &out)
{
    // Tolerate CRLF endings and indentation: the payload is the slice
    // between the first and last non-whitespace characters.
    const char *ws = " \t\r\n\v\f";
    std::size_t first = line.find_first_not_of(ws);
    if (first == std::string::npos || line[first] == '#')
        return false;
    std::size_t last = line.find_last_not_of(ws);
    const std::string body = line.substr(first, last - first + 1);

    // Split into exactly three whitespace-separated fields.
    std::string field[3];
    std::size_t pos = 0;
    for (int f = 0; f < 3; ++f) {
        pos = body.find_first_not_of(ws, pos);
        if (pos == std::string::npos)
            fatal("trace line %llu malformed (expected <hex-addr> "
                  "<R|W> <instr-gap>): '%s'",
                  static_cast<unsigned long long>(line_no),
                  line.c_str());
        std::size_t end = body.find_first_of(ws, pos);
        if (end == std::string::npos)
            end = body.size();
        field[f] = body.substr(pos, end - pos);
        pos = end;
    }
    if (body.find_first_not_of(ws, pos) != std::string::npos)
        fatal("trace line %llu: trailing garbage after the three "
              "fields: '%s'",
              static_cast<unsigned long long>(line_no), line.c_str());

    errno = 0;
    char *end = nullptr;
    out.addr = std::strtoull(field[0].c_str(), &end, 16);
    // Reject sign prefixes explicitly: strtoull accepts and *wraps*
    // them ('-1000' becomes 0xfff...f000), which would silently model
    // traffic at a bogus address.
    if (field[0][0] == '-' || field[0][0] == '+' ||
        end == field[0].c_str() || *end != '\0' || errno == ERANGE)
        fatal("trace line %llu: '%s' is not a hex address",
              static_cast<unsigned long long>(line_no),
              field[0].c_str());

    if (field[1] == "W" || field[1] == "w")
        out.isWrite = true;
    else if (field[1] == "R" || field[1] == "r")
        out.isWrite = false;
    else
        fatal("trace line %llu: access type '%s' is not R or W",
              static_cast<unsigned long long>(line_no),
              field[1].c_str());

    errno = 0;
    end = nullptr;
    out.instrGap = std::strtoull(field[2].c_str(), &end, 10);
    if (field[2][0] == '-' || field[2][0] == '+' ||
        end == field[2].c_str() || *end != '\0' || errno == ERANGE)
        fatal("trace line %llu: '%s' is not an instruction gap",
              static_cast<unsigned long long>(line_no),
              field[2].c_str());
    return true;
}

/** Read and validate a binary trace header from a stream. */
void
expectMagic(std::istream &in)
{
    char magic[sizeof kTraceMagic];
    in.read(magic, sizeof magic);
    if (in.gcount() != sizeof magic ||
        std::memcmp(magic, kTraceMagic, sizeof magic) != 0)
        fatal("binary trace: missing ARCCTRC1 magic (is this a text "
              "trace? convert it with textTraceToBinary)");
}

} // anonymous namespace

TraceWriter::TraceWriter(std::ostream &out) : out_(out)
{
    out_ << "# ARCC memory trace: <hex-addr> <R|W> <instr-gap>\n";
}

void
TraceWriter::append(const CoreWorkload::Access &access)
{
    out_ << std::hex << access.addr << std::dec << ' '
         << (access.isWrite ? 'W' : 'R') << ' ' << access.instrGap
         << '\n';
    if (!out_)
        fatal("trace write failed after %llu accesses (disk full?)",
              static_cast<unsigned long long>(count_));
    ++count_;
}

BinaryTraceWriter::BinaryTraceWriter(std::ostream &out) : out_(out)
{
    out_.write(kTraceMagic, sizeof kTraceMagic);
}

void
BinaryTraceWriter::append(const CoreWorkload::Access &access)
{
    std::uint8_t rec[kTraceRecordBytes];
    encodeRecord(access, rec);
    out_.write(reinterpret_cast<const char *>(rec), sizeof rec);
    if (!out_)
        fatal("trace write failed after %llu accesses (disk full?)",
              static_cast<unsigned long long>(count_));
    ++count_;
}

std::vector<CoreWorkload::Access>
parseTrace(std::istream &in)
{
    std::vector<CoreWorkload::Access> out;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        CoreWorkload::Access a;
        if (parseTraceLine(line, line_no, a))
            out.push_back(a);
    }
    return out;
}

std::vector<CoreWorkload::Access>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());
    return parseTrace(in);
}

std::uint64_t
textTraceToBinary(std::istream &text, std::ostream &bin)
{
    BinaryTraceWriter writer(bin);
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(text, line)) {
        ++line_no;
        CoreWorkload::Access a;
        if (parseTraceLine(line, line_no, a))
            writer.append(a);
    }
    return writer.count();
}

std::uint64_t
binaryTraceToText(std::istream &bin, std::ostream &text)
{
    expectMagic(bin);
    TraceWriter writer(text);
    std::uint8_t rec[kTraceRecordBytes];
    for (;;) {
        bin.read(reinterpret_cast<char *>(rec), sizeof rec);
        std::streamsize got = bin.gcount();
        if (got == 0)
            break;
        if (got != static_cast<std::streamsize>(sizeof rec))
            fatal("binary trace: truncated record after %llu accesses "
                  "(%lld trailing bytes -- a torn final write?); "
                  "refusing to emit a partial record",
                  static_cast<unsigned long long>(writer.count()),
                  static_cast<long long>(got));
        writer.append(decodeRecord(rec));
    }
    return writer.count();
}

std::uint64_t
textTraceFileToBinary(const std::string &text_path,
                      const std::string &bin_path)
{
    std::ifstream in(text_path);
    if (!in)
        fatal("cannot open trace file '%s'", text_path.c_str());
    std::ofstream out(bin_path, std::ios::binary);
    if (!out)
        fatal("cannot create trace file '%s'", bin_path.c_str());
    std::uint64_t n = textTraceToBinary(in, out);
    out.flush();
    if (!out)
        fatal("writing trace file '%s' failed (disk full?)",
              bin_path.c_str());
    return n;
}

std::uint64_t
binaryTraceFileToText(const std::string &bin_path,
                      const std::string &text_path)
{
    std::ifstream in(bin_path, std::ios::binary);
    if (!in)
        fatal("cannot open trace file '%s'", bin_path.c_str());
    std::ofstream out(text_path);
    if (!out)
        fatal("cannot create trace file '%s'", text_path.c_str());
    std::uint64_t n = binaryTraceToText(in, out);
    out.flush();
    if (!out)
        fatal("writing trace file '%s' failed (disk full?)",
              text_path.c_str());
    return n;
}

bool
isBinaryTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());
    char magic[sizeof kTraceMagic];
    in.read(magic, sizeof magic);
    return in.gcount() == sizeof magic &&
           std::memcmp(magic, kTraceMagic, sizeof magic) == 0;
}

TraceReplay::TraceReplay(std::vector<CoreWorkload::Access> accesses)
    : accesses_(std::move(accesses))
{
    if (accesses_.empty())
        fatal("TraceReplay: empty trace");
}

CoreWorkload::Access
TraceReplay::next()
{
    CoreWorkload::Access a = accesses_[pos_];
    if (++pos_ == accesses_.size()) {
        pos_ = 0;
        ++laps_;
    }
    return a;
}

TraceStream::TraceStream(std::string path, std::size_t chunkRecords)
    : path_(std::move(path)),
      chunk_records_(chunkRecords ? chunkRecords : 1)
{
    file_ = std::fopen(path_.c_str(), "rb");
    if (!file_)
        fatal("cannot open trace file '%s'", path_.c_str());
    // The chunk buffer *is* the read buffer: unbuffered stdio keeps
    // resident memory at O(chunk) instead of O(chunk + BUFSIZ) and
    // every fread() a single read(2) of one chunk.
    std::setvbuf(file_, nullptr, _IONBF, 0);

    std::uint8_t magic[sizeof kTraceMagic];
    if (std::fread(magic, 1, sizeof magic, file_) != sizeof magic ||
        std::memcmp(magic, kTraceMagic, sizeof magic) != 0)
        fatal("trace file '%s' is not an ARCC binary trace (missing "
              "ARCCTRC1 magic; convert text traces with "
              "textTraceToBinary)", path_.c_str());

    if (std::fseek(file_, 0, SEEK_END) != 0)
        fatal("cannot seek in trace file '%s'", path_.c_str());
    long size = std::ftell(file_);
    ARCC_ASSERT(size >= static_cast<long>(sizeof kTraceMagic));
    std::uint64_t payload =
        static_cast<std::uint64_t>(size) - sizeof kTraceMagic;
    if (payload % kTraceRecordBytes != 0)
        fatal("trace file '%s' is truncated: %llu payload bytes is "
              "not a whole number of %zu-byte records (%llu trailing "
              "bytes -- a torn final write?); refusing to replay a "
              "partial record",
              path_.c_str(), static_cast<unsigned long long>(payload),
              kTraceRecordBytes,
              static_cast<unsigned long long>(payload %
                                              kTraceRecordBytes));
    records_ = payload / kTraceRecordBytes;
    if (records_ == 0)
        fatal("trace file '%s' contains no accesses", path_.c_str());
    if (std::fseek(file_, sizeof kTraceMagic, SEEK_SET) != 0)
        fatal("cannot seek in trace file '%s'", path_.c_str());

    buf_.resize(chunk_records_ * kTraceRecordBytes);
}

TraceStream::~TraceStream()
{
    if (file_)
        std::fclose(file_);
}

void
TraceStream::refill()
{
    if (cursor_ == records_) {
        if (std::fseek(file_, sizeof kTraceMagic, SEEK_SET) != 0)
            fatal("cannot seek in trace file '%s'", path_.c_str());
        cursor_ = 0;
    }
    std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_records_, records_ - cursor_));
    std::size_t got =
        std::fread(buf_.data(), kTraceRecordBytes, want, file_);
    if (got != want)
        fatal("trace file '%s' shrank mid-replay: wanted %zu records "
              "at %llu, got %zu",
              path_.c_str(), want,
              static_cast<unsigned long long>(cursor_), got);
    cursor_ += want;
    buf_records_ = want;
    pos_ = 0;
}

CoreWorkload::Access
TraceStream::next()
{
    if (pos_ == buf_records_)
        refill();
    CoreWorkload::Access a =
        decodeRecord(buf_.data() + pos_ * kTraceRecordBytes);
    ++pos_;
    // Lap accounting matches TraceReplay: the lap increments as the
    // final record is returned, not when the wrap is next read.
    if (++in_pass_ == records_) {
        in_pass_ = 0;
        ++laps_;
    }
    return a;
}

std::uint64_t
captureSyntheticTrace(const std::string &benchmark,
                      std::uint64_t memBytes, int coreId,
                      std::uint64_t seed, std::uint64_t instrBudget,
                      const std::string &path, bool binary)
{
    CoreWorkload wl(benchmarkProfile(benchmark), memBytes, coreId,
                    seed);
    std::ofstream out(path, binary ? std::ios::binary
                                   : std::ios::out);
    if (!out)
        fatal("cannot create trace file '%s'", path.c_str());

    // One writer or the other.  The capture loop stops on the same
    // record as simulateStreams, which draws a core's next access
    // only while the core's budget is not yet covered -- the closure
    // depends on the two terminating together.
    std::uint64_t count = 0;
    auto capture = [&](auto &writer) {
        std::uint64_t instrs = 0;
        do {
            CoreWorkload::Access a = wl.next();
            writer.append(a);
            instrs += a.instrGap;
        } while (instrs < instrBudget);
        count = writer.count();
    };
    if (binary) {
        BinaryTraceWriter writer(out);
        capture(writer);
    } else {
        TraceWriter writer(out);
        capture(writer);
    }
    out.flush();
    if (!out)
        fatal("writing trace file '%s' failed (disk full?)",
              path.c_str());
    return count;
}

StreamSpec
traceStreamSpec(const std::string &path, double baseIpc,
                std::size_t chunkRecords)
{
    StreamSpec spec;
    std::size_t slash = path.find_last_of("/\\");
    spec.name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    spec.baseIpc = baseIpc;
    if (isBinaryTraceFile(path)) {
        auto stream =
            std::make_shared<TraceStream>(path, chunkRecords);
        spec.next = [stream]() { return stream->next(); };
        spec.laps = [stream]() { return stream->laps(); };
    } else {
        std::vector<CoreWorkload::Access> accesses = loadTrace(path);
        if (accesses.empty())
            fatal("trace file '%s' contains no accesses",
                  path.c_str());
        auto replay =
            std::make_shared<TraceReplay>(std::move(accesses));
        spec.next = [replay]() { return replay->next(); };
        spec.laps = [replay]() { return replay->laps(); };
    }
    return spec;
}

} // namespace arcc

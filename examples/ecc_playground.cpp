/**
 * @file
 * A tour of the ECC substrate: encode a cache line under every scheme
 * the paper discusses, break devices, and watch each code's guarantee
 * play out (Figure 2.1 / Chapter 2 semantics).
 *
 * Build & run:  ./build/examples/ecc_playground
 */

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "arcc/ecc_scheme.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "ecc/secded.hh"

using namespace arcc;

namespace
{

const char *
outcome(const DecodeResult &res, bool data_ok)
{
    switch (res.status) {
      case DecodeStatus::Clean:
        return data_ok ? "clean" : "SILENT CORRUPTION";
      case DecodeStatus::Corrected:
        return data_ok ? "corrected" : "MISCORRECTED";
      case DecodeStatus::Detected:
        return "detected (DUE)";
    }
    return "?";
}

/** Device d's slice of an encoded line. */
std::span<std::uint8_t>
slice(DeviceSlices &slices, const LineCodec &codec, int d)
{
    return std::span<std::uint8_t>(slices).subspan(
        static_cast<std::size_t>(d) * codec.sliceBytes(),
        codec.sliceBytes());
}

/** Kill `kills` whole devices and decode; report what happened. */
std::string
tryKills(const LineCodec &codec, int kills, Rng &rng, LineWorkspace &ws)
{
    std::vector<std::uint8_t> data(codec.dataBytes());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    DeviceSlices slices;
    codec.encodeInto(data, slices, ws);
    for (int v = 0; v < kills; ++v)
        for (auto &b : slice(slices, codec, (v * 7 + 1) % codec.devices()))
            b ^= static_cast<std::uint8_t>(rng.range(1, 255));
    std::vector<std::uint8_t> out(codec.dataBytes());
    DecodeResult res;
    codec.decodeInto(slices, out, {}, ws, res);
    return outcome(res, out == data);
}

} // namespace

int
main()
{
    Rng rng(2013);
    LineWorkspace ws;

    printBanner("Chipkill schemes vs whole-device failures");
    TextTable t;
    t.header({"Scheme", "devices", "check sym/cw", "0 dead", "1 dead",
              "2 dead"});
    struct Entry
    {
        const char *label;
        std::unique_ptr<LineCodec> codec;
        const char *checks;
    };
    std::vector<Entry> entries;
    entries.push_back({"commercial SCCDCD", codecs::make("sccdcd"),
                       "4"});
    entries.push_back({"double chip sparing", codecs::make("dcs"),
                       "4 (3+spare)"});
    entries.push_back({"ARCC relaxed", codecs::make("arcc-relaxed"),
                       "2"});
    entries.push_back({"ARCC upgraded", codecs::make("arcc-upgraded"),
                       "4"});
    entries.push_back({"ARCC upgraded-2",
                       codecs::make("arcc-upgraded2"), "8"});
    entries.push_back({"LOT-ECC 9-device", codecs::make("lot9"),
                       "checksum+XOR"});
    entries.push_back({"LOT-ECC 18-device", codecs::make("lot18"),
                       "checksum+XOR+spare"});
    for (auto &e : entries) {
        t.row({e.label, std::to_string(e.codec->devices()), e.checks,
               tryKills(*e.codec, 0, rng, ws),
               tryKills(*e.codec, 1, rng, ws),
               tryKills(*e.codec, 2, rng, ws)});
    }
    t.print();
    std::printf("\nNote the table's story: every chipkill scheme "
                "survives one dead device; only the\nfour-check-symbol "
                "codes *detect* two; only chip sparing *corrects* "
                "two.  ARCC's trick\nis moving pages from row 3 to "
                "row 4 on demand.\n");

    printBanner("Erasure decoding (chip sparing after diagnosis)");
    {
        auto codec = codecs::make("dcs");
        std::vector<std::uint8_t> data(codec->dataBytes());
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.below(256));
        DeviceSlices slices;
        codec->encodeInto(data, slices, ws);
        // Device 9 was diagnosed bad and remapped: decode treats it as
        // an erasure, leaving headroom to correct a *new* error too.
        for (auto &b : slice(slices, *codec, 9))
            b = 0x00;
        for (auto &b : slice(slices, *codec, 20))
            b ^= 0x41;
        std::vector<std::uint8_t> out(codec->dataBytes());
        std::vector<int> erased = {9};
        DecodeResult res;
        codec->decodeInto(slices, out, erased, ws, res);
        std::printf("erased device 9 + fresh error in device 20: %s\n",
                    outcome(res, out == data));
    }

    printBanner("SECDED (the 9-device baseline ARCC leaves behind)");
    {
        std::uint64_t word = 0x0123456789abcdefULL;
        std::uint8_t check = Secded::encode(word);
        std::uint64_t w1 = word ^ (1ULL << 42);
        std::uint8_t c1 = check;
        auto r1 = Secded::decode(w1, c1);
        std::printf("single bit flip : %s (bit %d)\n",
                    r1.status == DecodeStatus::Corrected ? "corrected"
                                                         : "?!",
                    r1.bitCorrected);
        std::uint64_t w2 = word ^ (1ULL << 3) ^ (1ULL << 57);
        std::uint8_t c2 = check;
        auto r2 = Secded::decode(w2, c2);
        std::printf("double bit flip : %s\n",
                    r2.status == DecodeStatus::Detected
                        ? "detected (DUE)"
                        : "?!");
        std::printf("...but a whole-device failure takes out 4+ bits "
                    "at once: SECDED cannot cope,\nwhich is why "
                    "chipkill exists (Chapter 1).\n");
    }
    return 0;
}

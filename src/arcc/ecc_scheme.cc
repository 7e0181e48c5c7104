/**
 * @file
 * Line codec implementations.
 *
 * Every codec reads and writes the flat device-major line buffer in
 * place.
 */

#include "arcc/ecc_scheme.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "common/logging.hh"
#include "ecc/secded.hh"

namespace arcc
{

// ---------------------------------------------------------------------
// RsLineCodec
// ---------------------------------------------------------------------

CodecTraits
RsLineCodec::traits() const
{
    CodecTraits t;
    t.symbolBits = 8;
    t.correct = maxCorrect_;
    // RS(n, k) has n - k check symbols and minimum distance
    // n - k + 1: decoding capped at maxCorrect leaves
    // n - k - maxCorrect symbols of guaranteed detection headroom.
    t.detect = (rs_.n() - rs_.k()) - maxCorrect_;
    t.codewords = codewords_;
    t.family = "rs";
    return t;
}

RsLineCodec::RsLineCodec(int n, int k, int data_bytes, int max_correct,
                         const char *name)
    : rs_(n, k),
      codewords_(data_bytes / k),
      dataBytes_(data_bytes),
      maxCorrect_(max_correct),
      name_(name)
{
    if (data_bytes % k != 0)
        fatal("RsLineCodec: %dB line not divisible into RS(%d,%d)",
              data_bytes, n, k);
}

void
RsLineCodec::encodeInto(std::span<const std::uint8_t> data,
                        DeviceSlices &out, LineWorkspace &ws) const
{
    ARCC_ASSERT(data.size() == static_cast<std::size_t>(dataBytes_));
    (void)ws; // The LFSR chains run in registers.
    const int k = rs_.k();
    const int cw = codewords_;
    out.resize(static_cast<std::size_t>(rs_.n()) * cw);

    // Device rows are SoA symbol rows: transpose the data into rows
    // [0, k) and encode every codeword of the line at once.  (Locals,
    // not members, so the byte stores cannot force reloads.)
    std::uint8_t *rows = out.data();
    for (int c = 0; c < cw; ++c)
        for (int s = 0; s < k; ++s)
            rows[s * cw + c] = data[c * k + s];
    rs_.encodeSoa(rows, cw, cw);
}

void
RsLineCodec::decodeInto(DeviceSlices &slices,
                        std::span<std::uint8_t> data,
                        std::span<const int> erased, LineWorkspace &ws,
                        DecodeResult &out) const
{
    ARCC_ASSERT(slices.size() ==
                static_cast<std::size_t>(rs_.n()) * codewords_);
    ARCC_ASSERT(data.size() == static_cast<std::size_t>(dataBytes_));
    const int n = rs_.n();
    const int k = rs_.k();

    out.status = DecodeStatus::Clean;
    out.symbolsCorrected = 0;
    out.positions.clear();

    // The codeword staging buffer lives beside the RS scratch (the
    // decoder never touches ws.rs.word).
    const std::span<std::uint8_t> word(ws.rs.word.data(),
                                       static_cast<std::size_t>(n));
    for (int c = 0; c < codewords_; ++c) {
        for (int d = 0; d < n; ++d)
            word[d] = slices[d * codewords_ + c];
        const RsDecodeView res =
            rs_.decode(word, ws.rs, maxCorrect_, erased);
        if (res.status == DecodeStatus::Detected) {
            out.status = DecodeStatus::Detected;
            continue;
        }
        if (res.status == DecodeStatus::Corrected) {
            if (out.status != DecodeStatus::Detected)
                out.status = DecodeStatus::Corrected;
            out.symbolsCorrected += res.symbolsCorrected;
            for (int p : res.positions) {
                out.positions.push_back(p);
                slices[p * codewords_ + c] = word[p]; // write back.
            }
        }
        for (int s = 0; s < k; ++s)
            data[c * k + s] = word[s];
    }
}

// ---------------------------------------------------------------------
// LotLineCodec
// ---------------------------------------------------------------------

CodecTraits
LotLineCodec::traits() const
{
    CodecTraits t;
    t.symbolBits = 8;
    // The checksum+XOR tier reconstructs one whole device per line
    // and detects (per-device) a second checksum mismatch.
    t.correct = 1;
    t.detect = 1;
    t.codewords = 1;
    t.family = "lot";
    return t;
}

LotLineCodec::LotLineCodec(int data_devices, int line_bytes)
    : lot_(data_devices, line_bytes), dataBytes_(line_bytes)
{
}

void
LotLineCodec::encodeInto(std::span<const std::uint8_t> data,
                         DeviceSlices &out, LineWorkspace &ws) const
{
    ARCC_ASSERT(data.size() == static_cast<std::size_t>(dataBytes_));
    (void)ws; // LotEcc needs no scratch.
    out.resize(static_cast<std::size_t>(devices()) * sliceBytes());
    lot_.encodeInto(data, out);
}

void
LotLineCodec::decodeInto(DeviceSlices &slices,
                         std::span<std::uint8_t> data,
                         std::span<const int> erased, LineWorkspace &ws,
                         DecodeResult &out) const
{
    (void)ws;
    out.status = DecodeStatus::Clean;
    out.symbolsCorrected = 0;
    out.positions.clear();

    const LotDecodeResult lres = lot_.decode(slices, erased);
    if (lres.status == DecodeStatus::Detected) {
        out.status = DecodeStatus::Detected;
        return;
    }
    if (lres.status == DecodeStatus::Corrected) {
        out.status = DecodeStatus::Corrected;
        out.symbolsCorrected = 1;
        out.positions.push_back(lres.deviceCorrected);
    }
    lot_.extractInto(slices, data);
}

// ---------------------------------------------------------------------
// SecdedLineCodec
// ---------------------------------------------------------------------

CodecTraits
SecdedLineCodec::traits() const
{
    CodecTraits t;
    t.symbolBits = 1;
    t.correct = 1;
    t.detect = 1;
    t.codewords = kWords;
    t.family = "secded";
    return t;
}

void
SecdedLineCodec::encodeInto(std::span<const std::uint8_t> data,
                            DeviceSlices &out, LineWorkspace &ws) const
{
    ARCC_ASSERT(data.size() == static_cast<std::size_t>(dataBytes()));
    (void)ws; // No scratch needed: words assemble in registers.

    out.resize(9 * kWords);
    for (int w = 0; w < kWords; ++w) {
        std::uint64_t word = 0;
        for (int d = 0; d < 8; ++d) {
            out[d * kWords + w] = data[w * 8 + d];
            word |= static_cast<std::uint64_t>(data[w * 8 + d])
                    << (8 * d);
        }
        out[8 * kWords + w] = Secded::encode(word);
    }
}

void
SecdedLineCodec::decodeInto(DeviceSlices &slices,
                            std::span<std::uint8_t> data,
                            std::span<const int> erased,
                            LineWorkspace &ws, DecodeResult &out) const
{
    ARCC_ASSERT(slices.size() == 9 * kWords);
    ARCC_ASSERT(data.size() == static_cast<std::size_t>(dataBytes()));
    ARCC_ASSERT(erased.empty()); // SECDED has no erasure channel.
    (void)ws;

    out.status = DecodeStatus::Clean;
    out.symbolsCorrected = 0;
    out.positions.clear();

    for (int w = 0; w < kWords; ++w) {
        std::uint64_t word = 0;
        for (int d = 0; d < 8; ++d)
            word |= static_cast<std::uint64_t>(slices[d * kWords + w])
                    << (8 * d);
        std::uint8_t check = slices[8 * kWords + w];

        const Secded::Result res = Secded::decode(word, check);
        if (res.status == DecodeStatus::Detected) {
            out.status = DecodeStatus::Detected;
            continue; // Word unrecoverable; data bytes not written.
        }
        if (res.status == DecodeStatus::Corrected) {
            if (out.status != DecodeStatus::Detected)
                out.status = DecodeStatus::Corrected;
            out.symbolsCorrected += 1;
            out.positions.push_back(w * 73 + res.bitCorrected);
            // Write the fix back to the slices.
            for (int d = 0; d < 8; ++d)
                slices[d * kWords + w] =
                    static_cast<std::uint8_t>(word >> (8 * d));
            slices[8 * kWords + w] = check;
        }
        for (int d = 0; d < 8; ++d)
            data[w * 8 + d] =
                static_cast<std::uint8_t>(word >> (8 * d));
    }
}

// ---------------------------------------------------------------------
// BchLineCodec
// ---------------------------------------------------------------------

BchLineCodec::BchLineCodec(int data_bytes, int t, int devices,
                           const char *name)
    : bch_(data_bytes * 8, t),
      devices_(devices),
      sliceBytes_((bch_.codeBytes() + devices - 1) / devices),
      dataBytes_(data_bytes),
      name_(name)
{
    ARCC_ASSERT(devices > 0);
}

CodecTraits
BchLineCodec::traits() const
{
    CodecTraits t;
    t.symbolBits = 1;
    t.correct = bch_.t();
    // The decoder's syndrome-delta check rejects any pattern that is
    // not exactly consistent, so t+1 errors are detected unless they
    // alias into another weight-<=t coset (no guarantee beyond +1).
    t.detect = 1;
    t.codewords = 1;
    t.family = "bch";
    return t;
}

void
BchLineCodec::encodeInto(std::span<const std::uint8_t> data,
                         DeviceSlices &out, LineWorkspace &ws) const
{
    ARCC_ASSERT(data.size() == static_cast<std::size_t>(dataBytes_));
    (void)ws; // The encoder runs in registers.

    // The buffer is the wire image: data || parity || zero pad.
    out.assign(static_cast<std::size_t>(devices_) * sliceBytes_, 0);
    std::copy(data.begin(), data.end(), out.begin());
    bch_.encode(std::span<std::uint8_t>(out.data(), bch_.codeBytes()));
}

void
BchLineCodec::decodeInto(DeviceSlices &slices,
                         std::span<std::uint8_t> data,
                         std::span<const int> erased, LineWorkspace &ws,
                         DecodeResult &out) const
{
    ARCC_ASSERT(slices.size() ==
                static_cast<std::size_t>(devices_) * sliceBytes_);
    ARCC_ASSERT(data.size() == static_cast<std::size_t>(dataBytes_));
    ARCC_ASSERT(erased.empty()); // No erasure channel.

    out.status = DecodeStatus::Clean;
    out.symbolsCorrected = 0;
    out.positions.clear();

    // In place: the decoder checks every syndrome before it flips a
    // bit, so a Detected decode leaves the buffer untouched.
    const Bch::Result res = bch_.decode(
        std::span<std::uint8_t>(slices.data(), bch_.codeBytes()), ws.bch,
        &out.positions);
    if (res.status == DecodeStatus::Detected) {
        out.status = DecodeStatus::Detected;
        return; // Data bytes not written.
    }
    if (res.status == DecodeStatus::Corrected) {
        out.status = DecodeStatus::Corrected;
        out.symbolsCorrected = res.bitsCorrected;
    }
    std::copy_n(slices.begin(), dataBytes_, data.begin());
}

// ---------------------------------------------------------------------
// Codec registry
// ---------------------------------------------------------------------

namespace codecs
{

namespace
{

struct Entry
{
    std::string summary;
    Factory factory;
};

struct Registry
{
    std::mutex mu;
    std::map<std::string, Entry> entries;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/** One-time registration of the built-in zoo. */
void
registerBuiltins()
{
    static const bool once = [] {
        registerCodec("sccdcd", "commercial SCCDCD RS(36,32) x2 / 64B",
                      [] {
                          return std::make_unique<RsLineCodec>(
                              36, 32, 64, 1, "SCCDCD RS(36,32)");
                      });
        registerCodec("dcs",
                      "double chip sparing RS(36,32) maxCorrect 2", [] {
                          return std::make_unique<RsLineCodec>(
                              36, 32, 64, 2, "DCS RS(36,32)+spare");
                      });
        registerCodec("arcc-relaxed",
                      "ARCC relaxed RS(18,16) x4 / 64B", [] {
                          return std::make_unique<RsLineCodec>(
                              18, 16, 64, 1, "ARCC relaxed RS(18,16)");
                      });
        registerCodec("arcc-upgraded",
                      "ARCC upgraded RS(36,32) x4 / 128B", [] {
                          return std::make_unique<RsLineCodec>(
                              36, 32, 128, 1,
                              "ARCC upgraded RS(36,32)");
                      });
        registerCodec("arcc-upgraded2",
                      "ARCC 2nd-level RS(72,64) x4 / 256B", [] {
                          return std::make_unique<RsLineCodec>(
                              72, 64, 256, 1,
                              "ARCC upgraded-2 RS(72,64)");
                      });
        registerCodec("lot9", "LOT-ECC nine-device checksum+XOR", [] {
            return std::make_unique<LotLineCodec>(8);
        });
        // Two nine-device channels in lockstep: a 128B paired line.
        registerCodec("lot18", "LOT-ECC 18-device (Ch 5.2)", [] {
            return std::make_unique<LotLineCodec>(16, 128);
        });
        registerCodec("hsiao72", "Hsiao SECDED (72,64) x8 / 64B", [] {
            return std::make_unique<SecdedLineCodec>();
        });
        registerCodec("bch512-t2",
                      "BCH(512+k, 512) t=2 over 18 devices", [] {
                          return std::make_unique<BchLineCodec>(
                              64, 2, 18, "BCH-512 t=2");
                      });
        registerCodec("bch512-t4",
                      "BCH(512+k, 512) t=4 over 18 devices", [] {
                          return std::make_unique<BchLineCodec>(
                              64, 4, 18, "BCH-512 t=4");
                      });
        return true;
    }();
    (void)once;
}

} // anonymous namespace

void
registerCodec(const std::string &key, const std::string &summary,
              Factory factory)
{
    if (!factory)
        fatal("codecs::registerCodec: empty factory for '%s'",
              key.c_str());
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto [it, inserted] =
        r.entries.emplace(key, Entry{summary, std::move(factory)});
    if (!inserted)
        fatal("codecs::registerCodec: duplicate codec key '%s'",
              key.c_str());
}

bool
known(const std::string &key)
{
    registerBuiltins();
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.entries.find(key) != r.entries.end();
}

std::unique_ptr<LineCodec>
make(const std::string &key)
{
    registerBuiltins();
    Factory factory;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        auto it = r.entries.find(key);
        if (it == r.entries.end())
            fatal("codecs::make: unknown codec '%s'", key.c_str());
        factory = it->second.factory;
    }
    std::unique_ptr<LineCodec> codec = factory();
    if (!codec)
        fatal("codecs::make: factory for '%s' returned null",
              key.c_str());
    return codec;
}

std::string
summary(const std::string &key)
{
    registerBuiltins();
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.entries.find(key);
    if (it == r.entries.end())
        fatal("codecs::summary: unknown codec '%s'", key.c_str());
    return it->second.summary;
}

std::vector<std::string>
names()
{
    registerBuiltins();
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<std::string> out;
    out.reserve(r.entries.size());
    for (const auto &[key, entry] : r.entries)
        out.push_back(key);
    return out; // std::map iteration order is already sorted.
}

} // namespace codecs

} // namespace arcc

/**
 * @file
 * Line-level ECC scheme codecs: the mapping between a cache line's data
 * bytes and the per-device symbol slices stored in DRAM.  An encoded
 * line is one flat, device-major buffer (DeviceSlices): device d's
 * slice is bytes [d * sliceBytes(), (d + 1) * sliceBytes()).
 *
 * Figure 2.1's layout rule is honoured by construction: every symbol of
 * a codeword is stored in a different device, so a whole-device failure
 * costs at most one symbol per codeword.
 *
 * Instances used by the library (symbols are 8-bit, Chapter 4.1's
 * "each symbol maintains its original size" layout):
 *
 *  | scheme                | code        | cw/line | devices | slice |
 *  |-----------------------|-------------|---------|---------|-------|
 *  | commercial SCCDCD     | RS(36,32)   | 2 / 64B | 36      | 2B    |
 *  | double chip sparing   | RS(36,32)+spare remap (maxCorrect 2)    |
 *  | ARCC relaxed          | RS(18,16)   | 4 / 64B | 18      | 4B    |
 *  | ARCC upgraded         | RS(36,32)   | 4 /128B | 36      | 4B    |
 *  | ARCC 2nd-level (5.1)  | RS(72,64)   | 4 /256B | 72      | 4B    |
 *  | LOT-ECC 9-device      | checksum+XOR| - / 64B | 9       | 8B+2B |
 *  | LOT-ECC 18-device     | checksum+XOR| - /128B | 17 of 18| 8B+2B |
 */

#ifndef ARCC_ARCC_ECC_SCHEME_HH
#define ARCC_ARCC_ECC_SCHEME_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ecc/bch.hh"
#include "ecc/lot_ecc.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/rs_workspace.hh"

namespace arcc
{

/**
 * One encoded line: devices() x sliceBytes() bytes in device-major
 * order, device d's slice at offset d * sliceBytes().  One heap block
 * whatever the device count, so a buffer reused across codecs of
 * different widths reallocates only when it outgrows its capacity.
 */
using DeviceSlices = std::vector<std::uint8_t>;

/**
 * Scratch arena for one in-flight line encode / decode: the
 * Reed-Solomon and BCH workspaces plus buffers whose heap storage is
 * reused across calls, so a steady-state sweep performs zero
 * allocations after its first group.  One per SimEngine worker /
 * shard; not thread-safe.
 */
struct LineWorkspace
{
    RsWorkspace rs;
    /** BCH decoder scratch (codec-zoo bit-granularity codecs). */
    BchWorkspace bch;
    /** Gathered line (storage reused across groups). */
    DeviceSlices slices;
    /** Erased-device list scratch for the memory model. */
    std::vector<int> erased;
    /** Decode-result scratch (positions keeps its capacity). */
    DecodeResult dec;
};

/**
 * Self-description of a line codec: the granularity it corrects at
 * and its guaranteed per-codeword capability.  The fault-injection
 * matrix (faults/fault_matrix.hh) sizes its error axis and picks its
 * flip granularity from these, so a codec registered in the zoo is
 * automatically swept without campaign-side special cases.
 */
struct CodecTraits
{
    /**
     * Correction granularity in bits: 8 for symbol-oriented codecs
     * (RS, LOT-ECC -- one flipped wire byte is one symbol error),
     * 1 for bit-oriented codecs (BCH, SECDED).
     */
    int symbolBits = 8;
    /** Guaranteed correctable symbols per codeword. */
    int correct = 1;
    /**
     * Additional symbols guaranteed *detected* beyond `correct`
     * (errors of weight correct + detect never silently corrupt a
     * single codeword; more may miscorrect).
     */
    int detect = 1;
    /** Codewords per line. */
    int codewords = 1;
    /** Family tag for reporting: "rs", "lot", "bch", "secded". */
    const char *family = "rs";
};

/**
 * Abstract line codec: data line <-> one device-major DeviceSlices
 * buffer.  Both directions work in the caller's buffers with scratch
 * from the caller's LineWorkspace.
 */
class LineCodec
{
  public:
    virtual ~LineCodec() = default;

    /** Self-description (granularity and capability). */
    virtual CodecTraits traits() const = 0;

    /** Devices the line is striped over (n). */
    virtual int devices() const = 0;
    /** Bytes stored per device for one line. */
    virtual int sliceBytes() const = 0;
    /** Data payload per line (64, 128 or 256). */
    virtual int dataBytes() const = 0;

    /**
     * Encode data into `out`, resized to devices() * sliceBytes() and
     * reusing its heap storage: allocation-free once `out` has
     * reached that capacity.
     */
    virtual void encodeInto(std::span<const std::uint8_t> data,
                            DeviceSlices &out,
                            LineWorkspace &ws) const = 0;

    /**
     * Decode `slices` into `data`, writing corrections back into
     * `slices`.  Allocation-free: all scratch comes from `ws`, and the
     * result lands in `out` reusing its buffers (positions keeps its
     * capacity across calls).
     * @param erased device indices known bad (chip sparing).
     */
    virtual void decodeInto(DeviceSlices &slices,
                            std::span<std::uint8_t> data,
                            std::span<const int> erased,
                            LineWorkspace &ws,
                            DecodeResult &out) const = 0;

    /**
     * The RS codec behind this line format, or nullptr when the wire
     * format is not SoA-batchable (LOT-ECC's checksum+XOR lines).
     * When non-null, the device rows double as SoA symbol rows --
     * byte d * sliceBytes() + c is symbol d of codeword c -- so a
     * batch reader can stage whole groups into an RsWorkspace SoA
     * block with row memcpys and decode them through
     * ReedSolomon::decodeSoa with maxCorrect = traits().correct,
     * exactly as decodeInto would (see ArccMemory::accessBatch).
     */
    virtual const ReedSolomon *soaCodec() const { return nullptr; }

    /** Human-readable description. */
    virtual const char *name() const = 0;
};

/**
 * Reed-Solomon line codec: dataBytes/k codewords of RS(n, k); device d
 * stores symbol d of every codeword.  decodeInto computes every
 * codeword's syndromes in one pass over the device rows (an SoA block
 * of stride = codewords) and decodes only the codewords it flags.
 */
class RsLineCodec : public LineCodec
{
  public:
    /**
     * @param n           devices / symbols per codeword.
     * @param k           data symbols per codeword.
     * @param data_bytes  line payload; must be a multiple of k.
     * @param max_correct per-codeword error-correction cap (SCCDCD
     *                    corrects 1; double chip sparing 2).
     * @param name        display name.
     */
    RsLineCodec(int n, int k, int data_bytes, int max_correct,
                const char *name);

    CodecTraits traits() const override;
    int devices() const override { return rs_.n(); }
    int sliceBytes() const override { return codewords_; }
    int dataBytes() const override { return dataBytes_; }

    void encodeInto(std::span<const std::uint8_t> data,
                    DeviceSlices &out,
                    LineWorkspace &ws) const override;
    void decodeInto(DeviceSlices &slices, std::span<std::uint8_t> data,
                    std::span<const int> erased, LineWorkspace &ws,
                    DecodeResult &out) const override;
    const ReedSolomon *soaCodec() const override { return &rs_; }
    const char *name() const override { return name_; }

  private:
    ReedSolomon rs_;
    int codewords_;
    int dataBytes_;
    int maxCorrect_;
    const char *name_;
};

/**
 * LOT-ECC line codec: per-device data slice + embedded ones'-complement
 * checksum, plus an XOR parity device.  Its device rows are LotEcc's
 * rows, so the codec encodes and decodes them in place.  The
 * 16-data-device variant is the 18-device double-chip-sparing
 * extension of Chapter 5.2 (the spare device is managed by the memory
 * model, not the codec).
 */
class LotLineCodec : public LineCodec
{
  public:
    /**
     * @param data_devices 8 (nine-device rank) or 16 (the 18-device
     *                     upgraded mode of Chapter 5.2).
     * @param line_bytes   64 for the nine-device line; 128 for the
     *                     upgraded line, which pairs two adjacent 64B
     *                     lines across two lockstep channels exactly
     *                     like ARCC over commercial chipkill does.
     */
    explicit LotLineCodec(int data_devices, int line_bytes = 64);

    CodecTraits traits() const override;
    int devices() const override { return lot_.dataDevices() + 1; }
    int sliceBytes() const override { return lot_.rowBytes(); }
    int dataBytes() const override { return dataBytes_; }

    void encodeInto(std::span<const std::uint8_t> data,
                    DeviceSlices &out,
                    LineWorkspace &ws) const override;
    void decodeInto(DeviceSlices &slices, std::span<std::uint8_t> data,
                    std::span<const int> erased, LineWorkspace &ws,
                    DecodeResult &out) const override;
    const char *
    name() const override
    {
        return lot_.dataDevices() == 8 ? "LOT-ECC-9" : "LOT-ECC-18";
    }

  private:
    LotEcc lot_;
    int dataBytes_;
};

/**
 * Hsiao-style SECDED line codec on the paper's 9-device (x8) ECC DIMM
 * layout, built on the Secded (72,64) kernel: a 64B line is eight
 * 72-bit words; data device d stores byte lane d of every word, the
 * ninth device stores the eight check bytes.  A whole-device failure
 * therefore puts 8 adjacent bits into *every* word -- the failure
 * mode SECDED cannot handle, which is exactly the baseline-vs-chipkill
 * contrast of Chapter 1 that the fault matrix quantifies.
 */
class SecdedLineCodec : public LineCodec
{
  public:
    SecdedLineCodec() = default;

    CodecTraits traits() const override;
    int devices() const override { return 9; }
    int sliceBytes() const override { return kWords; }
    int dataBytes() const override { return kWords * 8; }

    void encodeInto(std::span<const std::uint8_t> data,
                    DeviceSlices &out,
                    LineWorkspace &ws) const override;
    /**
     * Per-word decode.  `out.positions` records one entry per
     * corrected word, encoded as word * 73 + bitCorrected (the
     * Secded::Result position, 1..72, with 72 the overall parity
     * bit).  Erasures are not supported by this family (SECDED has no
     * erasure channel); the list must be empty.
     */
    void decodeInto(DeviceSlices &slices, std::span<std::uint8_t> data,
                    std::span<const int> erased, LineWorkspace &ws,
                    DecodeResult &out) const override;
    const char *name() const override { return "Hsiao SECDED (72,64)"; }

  private:
    static constexpr int kWords = 8;
};

/**
 * BCH line codec: the whole line is one shortened binary
 * BCH(dataBytes * 8 + parity, dataBytes * 8) codeword correcting t
 * bit errors.  The line buffer is the wire image -- data, then
 * parity, then zero pad -- so device d stores wire bytes
 * [d * sliceBytes, (d+1) * sliceBytes) and the codec encodes and
 * decodes the buffer in place.
 */
class BchLineCodec : public LineCodec
{
  public:
    /**
     * @param data_bytes line payload (e.g. 64).
     * @param t          bit-correction capability.
     * @param devices    devices the wire format is striped over.
     * @param name       display name.
     */
    BchLineCodec(int data_bytes, int t, int devices, const char *name);

    CodecTraits traits() const override;
    int devices() const override { return devices_; }
    int sliceBytes() const override { return sliceBytes_; }
    int dataBytes() const override { return dataBytes_; }

    void encodeInto(std::span<const std::uint8_t> data,
                    DeviceSlices &out,
                    LineWorkspace &ws) const override;
    /**
     * `out.positions` records the wire bit indices the decoder
     * flipped.  Erasures are not supported (the binary decoder has no
     * erasure channel); the list must be empty.
     */
    void decodeInto(DeviceSlices &slices, std::span<std::uint8_t> data,
                    std::span<const int> erased, LineWorkspace &ws,
                    DecodeResult &out) const override;
    const char *name() const override { return name_; }

    const Bch &bch() const { return bch_; }

  private:
    Bch bch_;
    int devices_;
    int sliceBytes_;
    int dataBytes_;
    const char *name_;
};

/**
 * The codec registry: every line codec the zoo knows, keyed by a
 * short stable name.  The fault-injection matrix, the benches, and
 * the CLI all resolve codecs through here, so adding a codec to the
 * registry automatically adds it to every campaign.
 *
 * The paper's schemes are pre-registered under the keys
 *   sccdcd, dcs, arcc-relaxed, arcc-upgraded, arcc-upgraded2,
 *   lot9, lot18
 * and the zoo additions under
 *   hsiao72, bch512-t2, bch512-t4.
 *
 * Registration and lookup are mutex-guarded; codecs themselves are
 * immutable after construction and safe to share across SimEngine
 * shards (all scratch lives in the caller's LineWorkspace).
 */
namespace codecs
{

using Factory = std::function<std::unique_ptr<LineCodec>()>;

/**
 * Register a codec under `key`.  Fatal on a duplicate key or an
 * empty factory: a silently replaced codec would repin every golden
 * fault-matrix row.
 */
void registerCodec(const std::string &key, const std::string &summary,
                   Factory factory);

/** @return true when `key` is registered. */
bool known(const std::string &key);

/** Instantiate the codec registered under `key`; fatal if unknown. */
std::unique_ptr<LineCodec> make(const std::string &key);

/** One-line description of a registered codec; fatal if unknown. */
std::string summary(const std::string &key);

/** All registered keys, sorted. */
std::vector<std::string> names();

} // namespace codecs

} // namespace arcc

#endif // ARCC_ARCC_ECC_SCHEME_HH

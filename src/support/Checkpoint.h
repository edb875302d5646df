//===- support/Checkpoint.h - Serialized run state --------------*- C++ -*-===//
///
/// \file
/// Byte-level serialization for checkpoint/resume: a little-endian
/// `Serializer`/`Deserializer` pair, and `Checkpoint`, the versioned,
/// checksummed container a paused run is saved into.
///
/// The wire format is deliberately representation-independent: integers are
/// always written as 64-bit two's complement, whatever their in-memory
/// encoding. The layer above (semantics/ValueGraph.h, the machines) decides *what* to
/// write; this layer only guarantees framing, versioning and integrity:
///
///   [magic "MSCK"] [u32 version] [header] [payload ...] [u64 FNV-1a]
///
/// The trailing checksum covers every preceding byte, so a torn write (half
/// a checkpoint on disk after a crash) is detected on load rather than
/// resumed from. See DESIGN.md ("Checkpoint wire format") for the payload
/// layout.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SUPPORT_CHECKPOINT_H
#define MONSEM_SUPPORT_CHECKPOINT_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace monsem {

/// FNV-1a over \p Len bytes, optionally chained via \p Seed.
uint64_t fnv1aHash(const void *Data, size_t Len,
                   uint64_t Seed = 0xcbf29ce484222325ull);

/// Convenience overload for strings (program fingerprints, journal text).
inline uint64_t fnv1aHash(std::string_view Text) {
  return fnv1aHash(Text.data(), Text.size());
}

/// Append-only little-endian byte writer. All multi-byte writes are
/// fixed-width so the reader needs no lookahead.
class Serializer {
public:
  void writeU8(uint8_t V) { Buf.push_back(V); }
  void writeBool(bool V) { writeU8(V ? 1 : 0); }
  void writeU32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void writeU64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void writeI64(int64_t V) { writeU64(static_cast<uint64_t>(V)); }
  void writeBytes(const void *Data, size_t Len) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), P, P + Len);
  }
  /// Length-prefixed (u32) byte string.
  void writeString(std::string_view S) {
    writeU32(static_cast<uint32_t>(S.size()));
    writeBytes(S.data(), S.size());
  }

  size_t size() const { return Buf.size(); }
  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked reader over a byte span it does not own. Errors are
/// sticky: after the first over-read or explicit fail() every read returns
/// zero and ok() is false, so decode loops can check once at the end.
class Deserializer {
public:
  Deserializer(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}
  explicit Deserializer(const std::vector<uint8_t> &Buf)
      : Data(Buf.data()), Len(Buf.size()) {}

  uint8_t readU8() {
    if (!require(1))
      return 0;
    return Data[Pos++];
  }
  bool readBool() { return readU8() != 0; }
  uint32_t readU32() {
    if (!require(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  uint64_t readU64() {
    if (!require(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  int64_t readI64() { return static_cast<int64_t>(readU64()); }
  std::string readString() {
    uint32_t N = readU32();
    if (!require(N))
      return std::string();
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }

  bool ok() const { return Good; }
  const std::string &error() const { return Err; }
  void fail(std::string Msg) {
    if (Good) {
      Good = false;
      Err = std::move(Msg);
    }
  }
  size_t remaining() const { return Good ? Len - Pos : 0; }
  size_t position() const { return Pos; }
  /// Raw pointer to the current read position (for carving length-prefixed
  /// sub-views; pair with remaining()/skip()).
  const uint8_t *cursor() const { return Data + Pos; }
  void skip(size_t N) {
    if (require(N))
      Pos += N;
  }

private:
  bool require(size_t N) {
    if (!Good)
      return false;
    if (Len - Pos < N) {
      fail("checkpoint truncated: read past end of payload");
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  bool Good = true;
  std::string Err;
};

/// Which machine produced a checkpoint. Resume requires the same backend.
enum class CheckpointBackend : uint8_t { CEK = 0, VM = 1 };

/// Fixed-size header written after the magic/version. Fields describing the
/// run configuration are validated on resume. The four bytes after
/// `Monitored` are reserved: written as 0, ignored on read.
struct CheckpointHeader {
  CheckpointBackend Backend = CheckpointBackend::CEK;
  uint8_t Strategy = 0; ///< monsem::Strategy as a raw byte.
  /// Header byte 10. Written 1 by the CEK machine (flat frames) and 0 by
  /// the VM. A CEK checkpoint with 0 came from the named-environment
  /// machine, which is gone; the CEK machine refuses it.
  bool Lexical = false;
  bool Monitored = false;
  /// Structural fingerprint of the program (AST for the CEK machine,
  /// disassembly for the VM); resume refuses a mismatched program.
  uint64_t ProgramFingerprint = 0;
  /// Machine transitions completed when the checkpoint was taken. The
  /// resumed run re-executes from step SavedSteps+1, so cumulative step
  /// counts match an uninterrupted run exactly.
  uint64_t SavedSteps = 0;
};

/// An immutable, framed checkpoint: header + opaque payload + checksum.
/// Produced by Checkpoint::seal() from a Serializer, or parsed (and
/// integrity-checked) from bytes/a file.
class Checkpoint {
public:
  static constexpr uint32_t kVersion = 1;

  Checkpoint() = default;

  /// Starts a checkpoint: writes magic, version and \p H into a fresh
  /// Serializer; the caller appends the payload and calls seal().
  static Serializer begin(const CheckpointHeader &H);

  /// Appends the checksum trailer and parses the result back into a
  /// Checkpoint (always valid by construction).
  static Checkpoint seal(Serializer &&S);

  /// Parses \p Bytes, verifying magic, version and checksum. On failure
  /// returns an invalid Checkpoint and sets \p Err.
  static Checkpoint fromBytes(std::vector<uint8_t> Bytes, std::string &Err);

  /// Reads and verifies a checkpoint file.
  static Checkpoint loadFile(const std::string &Path, std::string &Err);

  /// Atomically writes the framed bytes: write temp, flush, fsync, close
  /// (all checked), rename into place, fsync the parent directory. The temp
  /// file is removed on every failure path. \p Fsync=false skips the two
  /// fsyncs (tests and overhead measurements); the destination is still
  /// only ever replaced by a complete checkpoint.
  bool saveFile(const std::string &Path, std::string &Err,
                bool Fsync = true) const;

  bool valid() const { return !Bytes.empty(); }
  const CheckpointHeader &header() const { return Header; }
  const std::vector<uint8_t> &bytes() const { return Bytes; }

  /// A reader positioned at the first payload byte (checksum excluded).
  Deserializer payload() const;

private:
  CheckpointHeader Header;
  std::vector<uint8_t> Bytes;
};

} // namespace monsem

#endif // MONSEM_SUPPORT_CHECKPOINT_H

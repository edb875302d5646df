//===- support/Checkpoint.cpp ---------------------------------------------===//

#include "support/Checkpoint.h"

#include "support/FailPoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

using namespace monsem;

namespace {
std::string errnoText(int E) {
  return E ? std::string(std::strerror(E)) : std::string("I/O error");
}
} // namespace

uint64_t monsem::fnv1aHash(const void *Data, size_t Len, uint64_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {

constexpr char kMagic[4] = {'M', 'S', 'C', 'K'};
// magic + version + 8 header bytes + fingerprint + saved steps.
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8 + 8;
constexpr size_t kTrailerSize = 8;

void writeHeader(Serializer &S, const CheckpointHeader &H) {
  S.writeBytes(kMagic, 4);
  S.writeU32(Checkpoint::kVersion);
  S.writeU8(static_cast<uint8_t>(H.Backend));
  S.writeU8(H.Strategy);
  S.writeBool(H.Lexical);
  S.writeBool(H.Monitored);
  // Reserved. Byte 12 once recorded the writer's Value representation;
  // readers ignore it, so files from any earlier build still load.
  S.writeU8(0);
  S.writeU8(0);
  S.writeU8(0);
  S.writeU8(0);
  S.writeU64(H.ProgramFingerprint);
  S.writeU64(H.SavedSteps);
}

bool parseHeader(const std::vector<uint8_t> &Bytes, CheckpointHeader &H,
                 std::string &Err) {
  if (Bytes.size() < kHeaderSize + kTrailerSize) {
    Err = "checkpoint too small to contain a header";
    return false;
  }
  if (std::memcmp(Bytes.data(), kMagic, 4) != 0) {
    Err = "not a checkpoint file (bad magic)";
    return false;
  }
  Deserializer D(Bytes.data() + 4, Bytes.size() - 4);
  uint32_t Version = D.readU32();
  if (Version != Checkpoint::kVersion) {
    Err = "unsupported checkpoint version " + std::to_string(Version) +
          " (this build reads version " + std::to_string(Checkpoint::kVersion) +
          ")";
    return false;
  }
  uint8_t Backend = D.readU8();
  if (Backend > static_cast<uint8_t>(CheckpointBackend::VM)) {
    Err = "unknown checkpoint backend tag";
    return false;
  }
  H.Backend = static_cast<CheckpointBackend>(Backend);
  H.Strategy = D.readU8();
  H.Lexical = D.readBool();
  H.Monitored = D.readBool();
  D.readU8(); // reserved
  D.readU8();
  D.readU8();
  D.readU8();
  H.ProgramFingerprint = D.readU64();
  H.SavedSteps = D.readU64();
  uint64_t Stored = fnv1aHash(Bytes.data(), Bytes.size() - kTrailerSize);
  Deserializer T(Bytes.data() + Bytes.size() - kTrailerSize, kTrailerSize);
  if (T.readU64() != Stored) {
    Err = "checkpoint checksum mismatch (file corrupt or torn write)";
    return false;
  }
  return true;
}

} // namespace

Serializer Checkpoint::begin(const CheckpointHeader &H) {
  Serializer S;
  writeHeader(S, H);
  return S;
}

Checkpoint Checkpoint::seal(Serializer &&S) {
  uint64_t Sum = fnv1aHash(S.bytes().data(), S.bytes().size());
  S.writeU64(Sum);
  Checkpoint Ck;
  Ck.Bytes = S.take();
  std::string Err;
  bool Ok = parseHeader(Ck.Bytes, Ck.Header, Err);
  (void)Ok; // begin() wrote the header; seal() cannot produce a bad frame.
  return Ck;
}

Checkpoint Checkpoint::fromBytes(std::vector<uint8_t> Bytes, std::string &Err) {
  Checkpoint Ck;
  CheckpointHeader H;
  if (!parseHeader(Bytes, H, Err))
    return Ck;
  Ck.Header = H;
  Ck.Bytes = std::move(Bytes);
  return Ck;
}

Checkpoint Checkpoint::loadFile(const std::string &Path, std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open checkpoint file '" + Path + "'";
    return Checkpoint();
  }
  std::vector<uint8_t> Bytes;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return fromBytes(std::move(Bytes), Err);
}

bool Checkpoint::saveFile(const std::string &Path, std::string &Err,
                          bool Fsync) const {
  if (!valid()) {
    Err = "refusing to write an empty checkpoint";
    return false;
  }
  // Atomic-replace discipline: write Path+".tmp", flush, fsync the file,
  // close (checked — close can surface deferred write errors), rename into
  // place, fsync the parent directory so the rename itself is durable.
  // Every failure path removes the temp file; the destination is only ever
  // a complete, previously-fsync'd checkpoint or whatever was there before.
  std::string Tmp = Path + ".tmp";
  errno = 0;
  std::FILE *F = FileSys::openFile(FailSite::CheckpointOpen, Tmp.c_str(), "wb");
  if (!F) {
    Err = "cannot create checkpoint file '" + Tmp + "': " + errnoText(errno);
    return false;
  }
  errno = 0;
  bool Ok = FileSys::writeFile(FailSite::CheckpointWrite, F, Bytes.data(),
                               Bytes.size()) == Bytes.size();
  if (!Ok)
    Err = "short write to checkpoint file '" + Tmp + "': " + errnoText(errno);
  if (Ok) {
    errno = 0;
    Ok = FileSys::flushFile(FailSite::CheckpointFlush, F) == 0;
    if (!Ok)
      Err = "cannot flush checkpoint file '" + Tmp + "': " + errnoText(errno);
  }
  if (Ok && Fsync) {
    errno = 0;
    Ok = FileSys::syncFile(FailSite::CheckpointSync, F) == 0;
    if (!Ok)
      Err = "cannot fsync checkpoint file '" + Tmp + "': " + errnoText(errno);
  }
  errno = 0;
  if (FileSys::closeFile(FailSite::CheckpointClose, F) != 0 && Ok) {
    Ok = false;
    Err = "cannot close checkpoint file '" + Tmp + "': " + errnoText(errno);
  }
  if (!Ok) {
    std::remove(Tmp.c_str());
    return false;
  }
  errno = 0;
  if (FileSys::renameFile(FailSite::CheckpointRename, Tmp.c_str(),
                          Path.c_str()) != 0) {
    Err = "cannot rename checkpoint file into place at '" + Path +
          "': " + errnoText(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  if (Fsync) {
    errno = 0;
    if (FileSys::syncParentDir(FailSite::CheckpointDirSync, Path.c_str()) !=
        0) {
      // The rename happened (the destination is valid) but is not yet
      // guaranteed durable; report it so the policy layer can decide.
      Err = "cannot fsync parent directory of '" + Path +
            "': " + errnoText(errno);
      return false;
    }
  }
  return true;
}

Deserializer Checkpoint::payload() const {
  if (!valid())
    return Deserializer(nullptr, 0);
  return Deserializer(Bytes.data() + kHeaderSize,
                      Bytes.size() - kHeaderSize - kTrailerSize);
}

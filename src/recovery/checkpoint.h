#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace clfd {
namespace recovery {

// Versioned, crash-consistent checkpoint container (DESIGN.md §10).
//
// Wire format (all integers little-endian native, this is a same-machine
// resume format, not an interchange format):
//
//   magic "CLFDCKPT" (8 bytes)
//   u32 format_version
//   u32 section_count
//   per section:
//     u32 name_len | name bytes
//     u64 payload_len | payload bytes
//     u32 crc32(payload)           (poly 0xEDB88320, reflected)
//
// Every read is bounds-checked before any allocation and every payload is
// CRC-verified before it is handed to a decoder, so truncation and
// bit-flips surface as a typed CheckpointError — never UB, never a
// half-restored model. Durability comes from WriteFileAtomic: the encoded
// container is written to `<path>.tmp`, fsync'd, the previous `<path>` is
// rotated to `<path>.prev`, the temp is renamed over `<path>`, and the
// directory is fsync'd. A crash at any instant leaves either the old
// snapshot, the old snapshot plus a stray temp, or the new snapshot with
// the old one as `.prev` — all of which LoadCheckpointWithFallback
// handles.

// Why a load or save failed. Carried by CheckpointError so callers can
// distinguish "file absent" from "file hostile" from "file stale".
enum class CheckpointStatus {
  kIoError,        // open/write/fsync/rename failed, or file absent on load
  kBadMagic,       // not a CLFD checkpoint at all
  kBadVersion,     // container format newer/older than this binary
  kTruncated,      // ran out of bytes mid-structure
  kCorrupt,        // CRC mismatch or structurally impossible field
  kShapeMismatch,  // decoded state does not fit the registered model
  kMissingSection, // well-formed container lacking a required section
};

const char* CheckpointStatusName(CheckpointStatus status);

class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointStatus status, const std::string& message);
  CheckpointStatus status() const { return status_; }

 private:
  CheckpointStatus status_;
};

// CRC-32 (reflected, poly 0xEDB88320 — the zlib/PNG polynomial).
uint32_t Crc32(const char* data, size_t size);
inline uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

// Append-only little-endian payload encoder. Length-prefixed variable
// fields make payloads self-delimiting so ByteReader can enforce bounds.
class ByteWriter {
 public:
  void PutU32(uint32_t v) { Raw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { Raw(&v, sizeof(v)); }
  void PutI32(int32_t v) { Raw(&v, sizeof(v)); }
  void PutF32(float v) { Raw(&v, sizeof(v)); }
  void PutF64(double v) { Raw(&v, sizeof(v)); }
  void PutStr(const std::string& s);
  void PutMatrix(const Matrix& m);
  void PutInts(const std::vector<int>& v);
  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  void Raw(const void* p, size_t n);
  std::string bytes_;
};

// Bounds-checked decoder over a payload produced by ByteWriter. Every
// getter throws CheckpointError(kTruncated) instead of reading past the
// end, and the variable-length getters validate their length prefix
// against the remaining bytes before allocating.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  uint32_t GetU32();
  uint64_t GetU64();
  int32_t GetI32();
  float GetF32();
  double GetF64();
  std::string GetStr();
  Matrix GetMatrix();
  std::vector<int> GetInts();

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void Raw(void* p, size_t n);
  const std::string& bytes_;
  size_t pos_ = 0;
};

// A named-section container. Section payloads are opaque byte strings;
// meaning is assigned by the writer/reader pair (RunCheckpointer).
class Checkpoint {
 public:
  static constexpr uint32_t kFormatVersion = 1;

  void SetSection(const std::string& name, std::string payload);
  bool HasSection(const std::string& name) const;
  // Throws CheckpointError(kMissingSection) when absent.
  const std::string& Section(const std::string& name) const;
  std::vector<std::string> SectionNames() const;

  std::string Encode() const;
  // Validates magic, version, structure, and every section CRC. Throws
  // CheckpointError on any defect.
  static Checkpoint Decode(const std::string& bytes);

 private:
  std::map<std::string, std::string> sections_;
};

// Creates `dir` (and missing parents) if absent. Throws
// CheckpointError(kIoError) when a component cannot be created.
void EnsureDirs(const std::string& dir);

// Durable whole-file write: temp + fsync + rotate-to-.prev + rename +
// directory fsync. Throws CheckpointError(kIoError) on any syscall
// failure; consults the fault::At("ckpt.io") probe so tests and
// --fault-plan can rehearse mid-snapshot IO failure deterministically.
void WriteFileAtomic(const std::string& path, const std::string& bytes);

// Reads and decodes `path`. Throws CheckpointError (kIoError when the file
// is absent/unreadable, otherwise whatever Decode finds wrong).
Checkpoint LoadCheckpoint(const std::string& path);

// Tries `path`, then `path.prev` when the primary is absent or fails
// validation. Returns nullopt when neither yields a valid checkpoint.
// Fallbacks and terminal failures are counted in the metrics registry
// (recovery.ckpt.load_fallbacks / recovery.ckpt.load_failures); when
// neither file exists, nothing failed and nothing is counted.
std::optional<Checkpoint> LoadCheckpointWithFallback(const std::string& path);

}  // namespace recovery
}  // namespace clfd

#include "recovery/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/fault.h"
#include "obs/metrics.h"

namespace clfd {
namespace recovery {

namespace {

constexpr char kMagic[8] = {'C', 'L', 'F', 'D', 'C', 'K', 'P', 'T'};

// Structural sanity caps. A corrupted length field must never drive a
// huge allocation before the bounds check against actual file size runs;
// these are generous for any real checkpoint in this repo.
constexpr uint32_t kMaxSections = 1u << 16;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint64_t kMaxPayloadLen = uint64_t{1} << 32;  // 4 GiB
constexpr int64_t kMaxMatrixElements = int64_t{1} << 28;
constexpr uint64_t kMaxVectorLen = uint64_t{1} << 28;

[[noreturn]] void Fail(CheckpointStatus status, const std::string& msg) {
  throw CheckpointError(status, msg);
}

std::string Errno(const std::string& op, const std::string& path) {
  return op + " failed for '" + path + "': " + std::strerror(errno);
}

}  // namespace

const char* CheckpointStatusName(CheckpointStatus status) {
  switch (status) {
    case CheckpointStatus::kIoError: return "io-error";
    case CheckpointStatus::kBadMagic: return "bad-magic";
    case CheckpointStatus::kBadVersion: return "bad-version";
    case CheckpointStatus::kTruncated: return "truncated";
    case CheckpointStatus::kCorrupt: return "corrupt";
    case CheckpointStatus::kShapeMismatch: return "shape-mismatch";
    case CheckpointStatus::kMissingSection: return "missing-section";
  }
  return "unknown";
}

CheckpointError::CheckpointError(CheckpointStatus status,
                                 const std::string& message)
    : std::runtime_error(std::string("checkpoint ") +
                         CheckpointStatusName(status) + ": " + message),
      status_(status) {}

uint32_t Crc32(const char* data, size_t size) {
  // Table-driven reflected CRC-32; the table is built once on first use.
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void ByteWriter::Raw(const void* p, size_t n) {
  bytes_.append(static_cast<const char*>(p), n);
}

void ByteWriter::PutStr(const std::string& s) {
  PutU64(s.size());
  Raw(s.data(), s.size());
}

void ByteWriter::PutMatrix(const Matrix& m) {
  PutI32(m.rows());
  PutI32(m.cols());
  Raw(m.data(), sizeof(float) * static_cast<size_t>(m.size()));
}

void ByteWriter::PutInts(const std::vector<int>& v) {
  PutU64(v.size());
  for (int x : v) PutI32(x);
}

void ByteReader::Raw(void* p, size_t n) {
  if (n > remaining()) {
    Fail(CheckpointStatus::kTruncated,
         "need " + std::to_string(n) + " bytes, have " +
             std::to_string(remaining()));
  }
  std::memcpy(p, bytes_.data() + pos_, n);
  pos_ += n;
}

uint32_t ByteReader::GetU32() { uint32_t v; Raw(&v, sizeof(v)); return v; }
uint64_t ByteReader::GetU64() { uint64_t v; Raw(&v, sizeof(v)); return v; }
int32_t ByteReader::GetI32() { int32_t v; Raw(&v, sizeof(v)); return v; }
float ByteReader::GetF32() { float v; Raw(&v, sizeof(v)); return v; }
double ByteReader::GetF64() { double v; Raw(&v, sizeof(v)); return v; }

std::string ByteReader::GetStr() {
  uint64_t len = GetU64();
  if (len > remaining()) {
    Fail(CheckpointStatus::kTruncated, "string length exceeds payload");
  }
  std::string s(bytes_.data() + pos_, len);
  pos_ += len;
  return s;
}

Matrix ByteReader::GetMatrix() {
  int32_t rows = GetI32();
  int32_t cols = GetI32();
  if (rows < 0 || cols < 0) {
    Fail(CheckpointStatus::kCorrupt, "negative matrix dimension");
  }
  int64_t elements = static_cast<int64_t>(rows) * static_cast<int64_t>(cols);
  if (elements > kMaxMatrixElements ||
      static_cast<uint64_t>(elements) * sizeof(float) > remaining()) {
    Fail(CheckpointStatus::kTruncated, "matrix payload exceeds section");
  }
  Matrix m(rows, cols);
  Raw(m.data(), sizeof(float) * static_cast<size_t>(elements));
  return m;
}

std::vector<int> ByteReader::GetInts() {
  uint64_t len = GetU64();
  if (len > kMaxVectorLen || len * sizeof(int32_t) > remaining()) {
    Fail(CheckpointStatus::kTruncated, "int vector exceeds section");
  }
  std::vector<int> v(len);
  for (uint64_t i = 0; i < len; ++i) v[i] = GetI32();
  return v;
}

void Checkpoint::SetSection(const std::string& name, std::string payload) {
  sections_[name] = std::move(payload);
}

bool Checkpoint::HasSection(const std::string& name) const {
  return sections_.count(name) != 0;
}

const std::string& Checkpoint::Section(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    Fail(CheckpointStatus::kMissingSection, name);
  }
  return it->second;
}

std::vector<std::string> Checkpoint::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& kv : sections_) names.push_back(kv.first);
  return names;
}

std::string Checkpoint::Encode() const {
  std::string out(kMagic, sizeof(kMagic));
  auto put_u32 = [&](uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_u64 = [&](uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(kFormatVersion);
  put_u32(static_cast<uint32_t>(sections_.size()));
  // std::map iteration is name-sorted, so the encoding is canonical: the
  // same logical state always produces byte-identical containers.
  for (const auto& kv : sections_) {
    put_u32(static_cast<uint32_t>(kv.first.size()));
    out.append(kv.first);
    put_u64(kv.second.size());
    out.append(kv.second);
    put_u32(Crc32(kv.second));
  }
  return out;
}

Checkpoint Checkpoint::Decode(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) + 2 * sizeof(uint32_t)) {
    Fail(CheckpointStatus::kTruncated, "container shorter than header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    Fail(CheckpointStatus::kBadMagic, "not a CLFDCKPT container");
  }
  size_t pos = sizeof(kMagic);
  auto get_u32 = [&](const char* what) {
    if (pos + sizeof(uint32_t) > bytes.size()) {
      Fail(CheckpointStatus::kTruncated, what);
    }
    uint32_t v;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  auto get_u64 = [&](const char* what) {
    if (pos + sizeof(uint64_t) > bytes.size()) {
      Fail(CheckpointStatus::kTruncated, what);
    }
    uint64_t v;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };

  uint32_t version = get_u32("format version");
  if (version != kFormatVersion) {
    Fail(CheckpointStatus::kBadVersion,
         "container version " + std::to_string(version) + ", expected " +
             std::to_string(kFormatVersion));
  }
  uint32_t count = get_u32("section count");
  if (count > kMaxSections) {
    Fail(CheckpointStatus::kCorrupt, "implausible section count");
  }

  Checkpoint ckpt;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = get_u32("section name length");
    if (name_len > kMaxNameLen || pos + name_len > bytes.size()) {
      Fail(CheckpointStatus::kTruncated, "section name exceeds container");
    }
    std::string name(bytes.data() + pos, name_len);
    pos += name_len;
    uint64_t payload_len = get_u64("section payload length");
    if (payload_len > kMaxPayloadLen || pos + payload_len > bytes.size()) {
      Fail(CheckpointStatus::kTruncated,
           "section '" + name + "' payload exceeds container");
    }
    std::string payload(bytes.data() + pos, payload_len);
    pos += payload_len;
    uint32_t stored_crc = get_u32("section checksum");
    uint32_t actual_crc = Crc32(payload);
    if (stored_crc != actual_crc) {
      Fail(CheckpointStatus::kCorrupt,
           "section '" + name + "' checksum mismatch");
    }
    if (ckpt.sections_.count(name) != 0) {
      Fail(CheckpointStatus::kCorrupt, "duplicate section '" + name + "'");
    }
    ckpt.sections_[name] = std::move(payload);
  }
  if (pos != bytes.size()) {
    Fail(CheckpointStatus::kCorrupt, "trailing bytes after last section");
  }
  return ckpt;
}

void EnsureDirs(const std::string& dir) {
  if (dir.empty()) return;
  std::string prefix = dir[0] == '/' ? "/" : "";
  std::stringstream ss(dir);
  std::string part;
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    prefix += part;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      Fail(CheckpointStatus::kIoError, Errno("mkdir", prefix));
    }
  }
}

void WriteFileAtomic(const std::string& path, const std::string& bytes) {
  if (fault::At("ckpt.io")) {
    Fail(CheckpointStatus::kIoError, "injected IO failure for '" + path + "'");
  }
  const std::string tmp = path + ".tmp";
  const std::string prev = path + ".prev";

  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) Fail(CheckpointStatus::kIoError, Errno("open", tmp));
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::string msg = Errno("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      Fail(CheckpointStatus::kIoError, msg);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    std::string msg = Errno("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    Fail(CheckpointStatus::kIoError, msg);
  }
  if (::close(fd) != 0) {
    std::string msg = Errno("close", tmp);
    ::unlink(tmp.c_str());
    Fail(CheckpointStatus::kIoError, msg);
  }

  // Keep the previous snapshot as the fallback target before committing
  // the new one. ENOENT just means this is the first snapshot.
  if (::rename(path.c_str(), prev.c_str()) != 0 && errno != ENOENT) {
    std::string msg = Errno("rotate", path);
    ::unlink(tmp.c_str());
    Fail(CheckpointStatus::kIoError, msg);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Fail(CheckpointStatus::kIoError, Errno("rename", tmp));
  }

  // fsync the directory so the rename itself is durable across a crash.
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }

  CLFD_METRIC_COUNT("recovery.ckpt.saves", 1);
  CLFD_METRIC_COUNT("recovery.ckpt.bytes", static_cast<int64_t>(bytes.size()));
}

Checkpoint LoadCheckpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    Fail(CheckpointStatus::kIoError, "cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is) {
    Fail(CheckpointStatus::kIoError, "cannot read '" + path + "'");
  }
  return Checkpoint::Decode(buf.str());
}

std::optional<Checkpoint> LoadCheckpointWithFallback(const std::string& path) {
  // A missing file is a fresh run, not a failure: only a file that exists
  // and cannot be used counts toward recovery.ckpt.load_failures.
  bool existed = false;
  for (const std::string& candidate : {path, path + ".prev"}) {
    struct stat st;
    if (::stat(candidate.c_str(), &st) != 0) continue;
    existed = true;
    try {
      Checkpoint ckpt = LoadCheckpoint(candidate);
      if (candidate != path) {
        CLFD_METRIC_COUNT("recovery.ckpt.load_fallbacks", 1);
      }
      return ckpt;
    } catch (const CheckpointError&) {
      // Damaged (crash mid-commit, bit rot): try the previous snapshot.
    }
  }
  if (existed) CLFD_METRIC_COUNT("recovery.ckpt.load_failures", 1);
  return std::nullopt;
}

}  // namespace recovery
}  // namespace clfd

#include "ckpt/format.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace sa::ckpt {
namespace {

constexpr char kMagic[8] = {'S', 'A', 'C', 'K', 'P', 'T', '\n', '\0'};
constexpr char kSectionTag = 'S';
constexpr char kEndTag = 'E';
constexpr std::size_t kMaxNameLen = 255;

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 8);
}

std::uint32_t get_u32(const char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

std::uint64_t get_u64(const char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

std::string errno_detail(const char* op, const std::string& path) {
  return std::string(op) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

const char* errc_name(Errc code) noexcept {
  switch (code) {
    case Errc::kOk: return "ok";
    case Errc::kIo: return "io-error";
    case Errc::kBadMagic: return "bad-magic";
    case Errc::kBadVersion: return "bad-version";
    case Errc::kTruncated: return "truncated";
    case Errc::kCrcMismatch: return "crc-mismatch";
    case Errc::kBadSection: return "bad-section";
    case Errc::kMissingSection: return "missing-section";
    case Errc::kMalformed: return "malformed";
    case Errc::kShapeMismatch: return "shape-mismatch";
    case Errc::kStateDivergence: return "state-divergence";
    case Errc::kUntaggedEvent: return "untagged-event";
  }
  return "unknown";
}

std::string Status::to_string() const {
  std::string s = errc_name(code);
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

std::uint32_t crc32(std::string_view data) noexcept {
  // CRC-32/ISO-HDLC, slicing-by-8: v[0] is the byte-at-a-time table and
  // v[k][i] advances v[k-1][i] by one more zero byte, so eight lookups
  // fold in eight input bytes. Bytes are assembled little-endian by hand,
  // so the result does not depend on host byte order. Tables are built on
  // first use (thread-safe statics).
  static const auto table = [] {
    struct Tables { std::uint32_t v[8][256]; };
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t.v[0][i] = c;
    }
    for (int k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i)
        t.v[k][i] = (t.v[k - 1][i] >> 8) ^ t.v[0][t.v[k - 1][i] & 0xff];
    return t;
  }();
  auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[i]));
  };
  std::uint32_t crc = 0xffffffffu;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const std::uint32_t lo = crc ^ (byte(i) | byte(i + 1) << 8 |
                                    byte(i + 2) << 16 | byte(i + 3) << 24);
    const std::uint32_t hi = byte(i + 4) | byte(i + 5) << 8 |
                             byte(i + 6) << 16 | byte(i + 7) << 24;
    crc = table.v[7][lo & 0xff] ^ table.v[6][(lo >> 8) & 0xff] ^
          table.v[5][(lo >> 16) & 0xff] ^ table.v[4][lo >> 24] ^
          table.v[3][hi & 0xff] ^ table.v[2][(hi >> 8) & 0xff] ^
          table.v[1][(hi >> 16) & 0xff] ^ table.v[0][hi >> 24];
  }
  for (; i < data.size(); ++i)
    crc = table.v[0][(crc ^ byte(i)) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

// ---------------------------------------------------------------------------
// Buffer

void Buffer::u32(std::uint32_t v) { put_u32(data_, v); }
void Buffer::u64(std::uint64_t v) { put_u64(data_, v); }

void Buffer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Buffer::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  data_.append(v.data(), v.size());
}

// ---------------------------------------------------------------------------
// Cursor

bool Cursor::take(std::size_t n, const char** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool Cursor::u8(std::uint8_t& out) {
  const char* p = nullptr;
  if (!take(1, &p)) return false;
  out = static_cast<std::uint8_t>(*p);
  return true;
}

bool Cursor::u32(std::uint32_t& out) {
  const char* p = nullptr;
  if (!take(4, &p)) return false;
  out = get_u32(p);
  return true;
}

bool Cursor::u64(std::uint64_t& out) {
  const char* p = nullptr;
  if (!take(8, &p)) return false;
  out = get_u64(p);
  return true;
}

bool Cursor::boolean(bool& out) {
  std::uint8_t v = 0;
  if (!u8(v)) return false;
  out = v != 0;
  return true;
}

bool Cursor::f64(double& out) {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  std::memcpy(&out, &bits, sizeof(out));
  return true;
}

bool Cursor::str(std::string& out) {
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  const char* p = nullptr;
  if (!take(len, &p)) return false;
  out.assign(p, len);
  return true;
}

Status Cursor::finish(std::string_view what) const {
  if (!ok_)
    return Status::error(Errc::kMalformed,
                         std::string(what) + ": payload shorter than schema");
  if (!at_end())
    return Status::error(Errc::kMalformed,
                         std::string(what) + ": trailing bytes in payload");
  return {};
}

// ---------------------------------------------------------------------------
// Writer

Writer::Writer() {
  out_.append(kMagic, sizeof(kMagic));
  put_u32(out_, kFormatVersion);
}

void Writer::section(std::string_view name, const Buffer& payload) {
  if (finished_ || name.empty() || name.size() > kMaxNameLen) return;
  out_.push_back(kSectionTag);
  put_u32(out_, static_cast<std::uint32_t>(name.size()));
  out_.append(name.data(), name.size());
  put_u64(out_, payload.size());
  out_.append(payload.data());
  put_u32(out_, crc32(payload.data()));
  ++sections_;
}

std::string Writer::finish() {
  if (!finished_) {
    out_.push_back(kEndTag);
    put_u32(out_, sections_);
    finished_ = true;
  }
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// Reader

Status Reader::parse(std::string data, Reader& out) {
  out = Reader{};
  const std::size_t n = data.size();
  if (n < sizeof(kMagic) + 4) {
    if (n == 0) return Status::error(Errc::kTruncated, "empty file");
    if (n >= sizeof(kMagic) &&
        std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0)
      return Status::error(Errc::kTruncated, "file ends inside the header");
    return Status::error(Errc::kBadMagic, "file too short for header");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::error(Errc::kBadMagic, "not a sa::ckpt file");
  const std::uint32_t version = get_u32(data.data() + sizeof(kMagic));
  if (version != kFormatVersion)
    return Status::error(Errc::kBadVersion,
                         "format version " + std::to_string(version) +
                             " (this build reads " +
                             std::to_string(kFormatVersion) + ")");

  Reader r;
  std::size_t pos = sizeof(kMagic) + 4;
  bool saw_end = false;
  std::uint32_t declared = 0;
  while (pos < n) {
    const char tag = data[pos++];
    if (tag == kEndTag) {
      if (n - pos < 4)
        return Status::error(Errc::kTruncated, "file ends inside the trailer");
      declared = get_u32(data.data() + pos);
      pos += 4;
      saw_end = true;
      break;
    }
    if (tag != kSectionTag)
      return Status::error(Errc::kBadSection,
                           "unknown record tag at offset " +
                               std::to_string(pos - 1));
    if (n - pos < 4)
      return Status::error(Errc::kTruncated, "file ends inside a section name");
    const std::uint32_t name_len = get_u32(data.data() + pos);
    pos += 4;
    if (name_len == 0 || name_len > kMaxNameLen)
      return Status::error(Errc::kBadSection,
                           "section name length " + std::to_string(name_len));
    if (n - pos < name_len)
      return Status::error(Errc::kTruncated, "file ends inside a section name");
    std::string name(data.data() + pos, name_len);
    pos += name_len;
    if (n - pos < 8)
      return Status::error(Errc::kTruncated,
                           "file ends inside section '" + name + "' length");
    const std::uint64_t payload_len = get_u64(data.data() + pos);
    pos += 8;
    if (payload_len > n - pos)
      return Status::error(Errc::kTruncated,
                           "file ends inside section '" + name + "' payload");
    const std::size_t payload_off = pos;
    pos += static_cast<std::size_t>(payload_len);
    if (n - pos < 4)
      return Status::error(Errc::kTruncated,
                           "file ends inside section '" + name + "' crc");
    const std::uint32_t want_crc = get_u32(data.data() + pos);
    pos += 4;
    const std::uint32_t got_crc = crc32(
        std::string_view(data.data() + payload_off,
                         static_cast<std::size_t>(payload_len)));
    if (got_crc != want_crc)
      return Status::error(Errc::kCrcMismatch, "section '" + name + "'");
    for (const Section& s : r.sections_)
      if (s.name == name)
        return Status::error(Errc::kBadSection,
                             "duplicate section '" + name + "'");
    r.sections_.push_back(Section{std::move(name), payload_off,
                                  static_cast<std::size_t>(payload_len)});
  }
  if (!saw_end)
    return Status::error(Errc::kTruncated, "missing trailer (torn write)");
  if (pos != n)
    return Status::error(Errc::kMalformed, "trailing bytes after the trailer");
  if (declared != r.sections_.size())
    return Status::error(Errc::kMalformed,
                         "trailer declares " + std::to_string(declared) +
                             " sections, found " +
                             std::to_string(r.sections_.size()));
  r.data_ = std::move(data);
  r.names_.reserve(r.sections_.size());
  for (const Section& s : r.sections_) r.names_.push_back(s.name);
  out = std::move(r);
  return {};
}

Status Reader::read_file(const std::string& path, Reader& out) {
  std::string data;
  if (Status st = slurp_file(path, data); !st.ok()) return st;
  return parse(std::move(data), out);
}

bool Reader::has(std::string_view name) const noexcept {
  for (const Section& s : sections_)
    if (s.name == name) return true;
  return false;
}

std::string_view Reader::payload(std::string_view name) const noexcept {
  for (const Section& s : sections_)
    if (s.name == name)
      return std::string_view(data_.data() + s.offset, s.length);
  return {};
}

Status Reader::open(std::string_view name, Cursor& out) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      out = Cursor(std::string_view(data_.data() + s.offset, s.length));
      return {};
    }
  }
  return Status::error(Errc::kMissingSection, std::string(name));
}

// ---------------------------------------------------------------------------
// Files

Status slurp_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::error(Errc::kIo, errno_detail("open", path));
  out.clear();
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::error(Errc::kIo, errno_detail("read", path));
  return {};
}

Status write_file_atomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::error(Errc::kIo, errno_detail("open", tmp));
  const std::size_t wrote = std::fwrite(data.data(), 1, data.size(), f);
  if (wrote != data.size() || std::fflush(f) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Status::error(Errc::kIo, errno_detail("write", tmp));
  }
  // Make the bytes durable before the rename makes them visible, so a
  // crash never replaces a valid checkpoint with an empty file.
  ::fsync(::fileno(f));
  std::fclose(f);
  // Keep the previous checkpoint as .prev: resume falls back to it when
  // the primary is torn or corrupt.
  std::rename(path.c_str(), (path + ".prev").c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::error(Errc::kIo, errno_detail("rename", path));
  }
  return {};
}

Status read_with_fallback(const std::string& path, Reader& out,
                          std::string* used_path,
                          std::string* fallback_error) {
  Status primary = Reader::read_file(path, out);
  if (primary.ok()) {
    if (used_path) *used_path = path;
    return primary;
  }
  const std::string prev = path + ".prev";
  Status fallback = Reader::read_file(prev, out);
  if (fallback.ok()) {
    if (used_path) *used_path = prev;
    if (fallback_error) *fallback_error = primary.to_string();
    return fallback;
  }
  return primary;  // report the primary failure; .prev was no better
}

}  // namespace sa::ckpt

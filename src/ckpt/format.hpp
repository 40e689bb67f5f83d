// Versioned, CRC-framed binary checkpoint container (sa::ckpt).
//
// A checkpoint file is a flat sequence of named sections, each integrity-
// checked independently, so a torn write or a flipped bit is detected at
// the section that carries it and reported as a typed error — the loader
// never throws and never reads out of bounds, which is what lets the
// harness fall back to the newest valid checkpoint instead of crashing.
//
// File layout (all integers little-endian):
//
//   magic    8 bytes   "SACKPT\n" NUL
//   version  u32       kFormatVersion
//   record*            'S' u32 name_len, name, u64 payload_len, payload,
//                          u32 crc32(payload)
//   trailer            'E' u32 section_count
//
// Section payloads are written through `Buffer` and read through `Cursor`,
// which provide the typed primitives (u8/u32/u64/f64/str; i64 on write).
// Doubles are serialized as their exact IEEE-754 bit pattern — checkpoint
// equality is byte equality, the same discipline the metamorphic tests
// apply to trajectories.
//
// Writes are atomic: data lands in `path.tmp`, the previous checkpoint is
// rotated to `path.prev`, then the tmp file is renamed into place. A crash
// between the two renames leaves `path.prev` as the newest valid file,
// which `read_file_with_fallback` picks up.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sa::ckpt {

/// Raised with every change to a section's layout, so an image written by
/// another layout fails with kBadVersion instead of kStateDivergence.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Typed error codes for every way a checkpoint can be unusable. The
/// loader returns these — it never throws, crashes, or invokes UB on
/// malformed input (fuzzed in tests/ckpt/format_test.cpp).
enum class Errc {
  kOk = 0,
  kIo,              // open/read/write/rename failed (see detail for errno text)
  kBadMagic,        // not a checkpoint file
  kBadVersion,      // produced by an incompatible format revision
  kTruncated,       // file ends mid-record (torn write)
  kCrcMismatch,     // a section's payload fails its CRC (bit rot / flip)
  kBadSection,      // unknown record type or oversized/duplicate name
  kMissingSection,  // a required section is absent
  kMalformed,       // section payload shorter than its schema requires
  kShapeMismatch,   // checkpoint disagrees with the run configuration
  kStateDivergence, // replayed state does not byte-match the attestation
  kUntaggedEvent,   // engine export found a pending event with no tag
};

[[nodiscard]] const char* errc_name(Errc code) noexcept;

struct Status {
  Errc code = Errc::kOk;
  std::string detail;

  [[nodiscard]] bool ok() const noexcept { return code == Errc::kOk; }
  [[nodiscard]] std::string to_string() const;
  static Status error(Errc code, std::string detail = {}) {
    return Status{code, std::move(detail)};
  }
};

/// CRC-32 (IEEE 802.3, reflected, init/final xor 0xffffffff) over `data`.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

/// Typed little-endian append buffer — the payload side of one section.
class Buffer {
 public:
  void u8(std::uint8_t v) { data_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Exact bit pattern — round-trips NaN payloads and signed zeros.
  void f64(double v);
  /// u32 length prefix + bytes.
  void str(std::string_view v);
  /// Raw append without a length prefix.
  void raw(std::string_view v) { data_.append(v.data(), v.size()); }

  [[nodiscard]] const std::string& data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

 private:
  std::string data_;
};

/// Bounds-checked typed reads over one section payload. Every getter
/// returns false (and latches !ok()) instead of reading past the end.
class Cursor {
 public:
  Cursor() = default;
  explicit Cursor(std::string_view data) : data_(data) {}

  [[nodiscard]] bool u8(std::uint8_t& out);
  [[nodiscard]] bool u32(std::uint32_t& out);
  [[nodiscard]] bool u64(std::uint64_t& out);
  [[nodiscard]] bool boolean(bool& out);
  [[nodiscard]] bool f64(double& out);
  [[nodiscard]] bool str(std::string& out);

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// kMalformed unless every byte was consumed without a short read.
  [[nodiscard]] Status finish(std::string_view what) const;

 private:
  bool take(std::size_t n, const char** out);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Assembles a checkpoint image: named sections, each CRC-framed.
class Writer {
 public:
  Writer();
  /// Appends one section. Names must be unique, non-empty, < 256 bytes.
  void section(std::string_view name, const Buffer& payload);
  /// Seals the image (writes the trailer) and returns it. Call once.
  [[nodiscard]] std::string finish();

 private:
  std::string out_;
  std::uint32_t sections_ = 0;
  bool finished_ = false;
};

/// Parses and validates a checkpoint image; owns the bytes so section
/// payload views stay valid for the Reader's lifetime.
class Reader {
 public:
  /// Full validation up front: magic, version, record framing, every
  /// section's CRC, trailer count. On error `out` is left empty.
  [[nodiscard]] static Status parse(std::string data, Reader& out);
  [[nodiscard]] static Status read_file(const std::string& path, Reader& out);

  [[nodiscard]] bool has(std::string_view name) const noexcept;
  /// Raw payload of a section ({} if absent — check has() or use open()).
  [[nodiscard]] std::string_view payload(std::string_view name) const noexcept;
  /// Positions a cursor over a required section.
  [[nodiscard]] Status open(std::string_view name, Cursor& out) const;
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;  // into data_
    std::size_t length = 0;
  };
  std::string data_;
  std::vector<Section> sections_;
  std::vector<std::string> names_;
};

/// Reads a whole file into `out`. kIo with errno text on failure.
[[nodiscard]] Status slurp_file(const std::string& path, std::string& out);

/// Atomic checkpoint write: `path.tmp` + fsync, rotate any existing file
/// to `path.prev`, rename into place.
[[nodiscard]] Status write_file_atomic(const std::string& path,
                                       std::string_view data);

/// Opens `path`, falling back to `path.prev` if the primary is missing,
/// truncated, or corrupt. `used_path`/`fallback_error` (optional) report
/// which file was loaded and why the primary was rejected.
[[nodiscard]] Status read_with_fallback(const std::string& path, Reader& out,
                                        std::string* used_path = nullptr,
                                        std::string* fallback_error = nullptr);

}  // namespace sa::ckpt

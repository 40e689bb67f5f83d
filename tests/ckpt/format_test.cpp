// Fuzz/negative tests for the checkpoint container (ctest -L ckpt).
//
// The loader's contract is "typed error, never crash": every truncation
// point, every single-bit flip, zero-length input, wrong magic/version —
// each must come back as a ckpt::Status, with no exception, no UB and no
// out-of-bounds read (the CI sanitizer lanes run this suite under
// ASan/UBSan, which is what turns "no crash observed" into "no UB").
#include "ckpt/format.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>

namespace sa::ckpt {
namespace {

std::string image_with_sections() {
  Buffer alpha;
  alpha.u64(42);
  alpha.str("hello");
  alpha.f64(-0.0);
  Buffer beta;
  beta.boolean(true);
  beta.bytes(std::string(300, 'x'));
  Writer w;
  w.section("alpha", alpha);
  w.section("beta", beta);
  return w.finish();
}

TEST(CkptFormat, Crc32KnownVector) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
}

// Bit-at-a-time CRC-32/ISO-HDLC: the definition the table-driven crc32
// must match.
std::uint32_t crc32_bitwise(std::string_view data) {
  std::uint32_t crc = 0xffffffffu;
  for (char ch : data) {
    crc ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xffffffffu;
}

TEST(CkptFormat, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-300 cover the empty input, the byte-at-a-time tail alone,
  // and many eight-byte blocks plus every tail length; offsets 0-7 cover
  // every alignment of the first block.
  std::string pool(308, '\0');
  std::uint32_t x = 0x12345678u;
  for (auto& ch : pool) {
    x = x * 1664525u + 1013904223u;
    ch = static_cast<char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::string_view v(pool.data() + offset, len);
      ASSERT_EQ(crc32(v), crc32_bitwise(v))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(CkptFormat, BufferCursorRoundTripExactBits) {
  Buffer b;
  b.u8(0xab);
  b.u32(0xdeadbeef);
  b.u64(0x0123456789abcdefULL);
  b.i64(-17);
  b.boolean(false);
  b.f64(std::numeric_limits<double>::quiet_NaN());
  b.f64(-0.0);
  b.str("key");
  b.bytes("payload");

  Cursor c(b.data());
  std::uint8_t u8v = 0;
  std::uint32_t u32v = 0;
  std::uint64_t u64v = 0;
  std::int64_t i64v = 0;
  bool bv = true;
  double nan = 0.0, negzero = 1.0;
  std::string s, p;
  ASSERT_TRUE(c.u8(u8v));
  ASSERT_TRUE(c.u32(u32v));
  ASSERT_TRUE(c.u64(u64v));
  ASSERT_TRUE(c.i64(i64v));
  ASSERT_TRUE(c.boolean(bv));
  ASSERT_TRUE(c.f64(nan));
  ASSERT_TRUE(c.f64(negzero));
  ASSERT_TRUE(c.str(s));
  ASSERT_TRUE(c.bytes(p));
  EXPECT_EQ(u8v, 0xab);
  EXPECT_EQ(u32v, 0xdeadbeefu);
  EXPECT_EQ(u64v, 0x0123456789abcdefULL);
  EXPECT_EQ(i64v, -17);
  EXPECT_FALSE(bv);
  EXPECT_TRUE(std::isnan(nan));
  EXPECT_TRUE(std::signbit(negzero));
  EXPECT_EQ(negzero, 0.0);
  EXPECT_EQ(s, "key");
  EXPECT_EQ(p, "payload");
  EXPECT_TRUE(c.at_end());
  EXPECT_TRUE(c.finish("roundtrip").ok());
}

TEST(CkptFormat, CursorShortReadLatchesNotThrows) {
  Buffer b;
  b.u32(7);
  Cursor c(b.data());
  std::uint64_t v = 0;
  EXPECT_FALSE(c.u64(v));  // only 4 bytes available
  EXPECT_FALSE(c.ok());
  std::string s;
  EXPECT_FALSE(c.str(s));  // latched: everything after fails too
  EXPECT_EQ(c.finish("short").code, Errc::kMalformed);
}

TEST(CkptFormat, WriterReaderRoundTrip) {
  const std::string image = image_with_sections();
  Reader r;
  ASSERT_TRUE(Reader::parse(image, r).ok());
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_TRUE(r.has("beta"));
  EXPECT_FALSE(r.has("gamma"));
  ASSERT_EQ(r.names().size(), 2u);

  Cursor c;
  ASSERT_TRUE(r.open("alpha", c).ok());
  std::uint64_t v = 0;
  std::string s;
  double d = 1.0;
  ASSERT_TRUE(c.u64(v));
  ASSERT_TRUE(c.str(s));
  ASSERT_TRUE(c.f64(d));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(std::signbit(d));
  EXPECT_TRUE(c.finish("alpha").ok());

  EXPECT_EQ(r.open("gamma", c).code, Errc::kMissingSection);
}

TEST(CkptFormat, ZeroLengthAndGarbageInputs) {
  Reader r;
  EXPECT_EQ(Reader::parse("", r).code, Errc::kTruncated);
  EXPECT_EQ(Reader::parse("x", r).code, Errc::kBadMagic);
  EXPECT_EQ(Reader::parse("SACKPT\n", r).code, Errc::kBadMagic);
  // A true magic prefix cut inside the header is a torn write.
  EXPECT_EQ(Reader::parse(std::string("SACKPT\n\0\x01", 9), r).code,
            Errc::kTruncated);
  EXPECT_EQ(Reader::parse(std::string(64, '\0'), r).code, Errc::kBadMagic);
  EXPECT_EQ(Reader::parse("definitely not a checkpoint file at all", r).code,
            Errc::kBadMagic);
}

TEST(CkptFormat, WrongVersionIsTyped) {
  std::string image = image_with_sections();
  image[8] = static_cast<char>(kFormatVersion + 1);  // little-endian u32
  Reader r;
  EXPECT_EQ(Reader::parse(image, r).code, Errc::kBadVersion);
}

TEST(CkptFormat, DuplicateSectionNameRejected) {
  Buffer payload;
  payload.u8(1);
  Writer w;
  w.section("dup", payload);
  w.section("dup", payload);  // Writer asserts uniqueness by dropping/marking
  const std::string image = w.finish();
  Reader r;
  const Status st = Reader::parse(image, r);
  // Either the writer refused the duplicate (one section survives) or the
  // reader rejects the image — both keep duplicates out of a Reader.
  if (st.ok()) {
    EXPECT_EQ(r.names().size(), 1u);
  } else {
    EXPECT_EQ(st.code, Errc::kBadSection);
  }
}

// The heart of satellite 3: every prefix truncation of a valid image must
// yield a typed error (or, for the degenerate full-length case, success) —
// never a crash, throw, or out-of-bounds read.
TEST(CkptFormat, TruncationAtEveryByteIsTypedError) {
  const std::string image = image_with_sections();
  for (std::size_t len = 0; len < image.size(); ++len) {
    Reader r;
    const Status st = Reader::parse(image.substr(0, len), r);
    EXPECT_FALSE(st.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_NE(st.code, Errc::kOk);
  }
  Reader full;
  EXPECT_TRUE(Reader::parse(image, full).ok());
}

// Every single-bit flip must be *detected* — magic, version, framing or
// CRC — except flips confined to a section-name byte... which still get
// caught because the name length/chars feed the framing walk and lookups.
// We assert the weaker, load-bearing property: parse never crashes, and
// if it accepts the image, the payload bytes of surviving sections were
// CRC-validated (so a payload flip is *always* rejected).
TEST(CkptFormat, BitFlipAtEveryByteNeverCrashes) {
  const std::string image = image_with_sections();
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      Reader r;
      const Status st = Reader::parse(std::move(mutated), r);
      if (!st.ok()) ++rejected;
    }
  }
  // Almost every flip lands in magic/version/framing/payload/CRC and must
  // be rejected; only name-byte flips can legally survive (the renamed
  // section still frames and CRCs correctly).
  EXPECT_GT(rejected, image.size() * 8u * 9u / 10u);
}

TEST(CkptFormat, AtomicWriteRotatesAndFallsBack) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/ckpt_format_test.sackpt";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());

  // First write: no .prev yet.
  Buffer one;
  one.u64(1);
  Writer w1;
  w1.section("gen", one);
  ASSERT_TRUE(write_file_atomic(path, w1.finish()).ok());

  // Second write rotates the first image to .prev.
  Buffer two;
  two.u64(2);
  Writer w2;
  w2.section("gen", two);
  ASSERT_TRUE(write_file_atomic(path, w2.finish()).ok());

  Reader r;
  std::string used;
  ASSERT_TRUE(read_with_fallback(path, r, &used).ok());
  EXPECT_EQ(used, path);
  Cursor c;
  ASSERT_TRUE(r.open("gen", c).ok());
  std::uint64_t generation = 0;
  ASSERT_TRUE(c.u64(generation));
  EXPECT_EQ(generation, 2u);

  // Corrupt the primary: the fallback must serve generation 1 and report
  // why the primary was rejected.
  {
    std::string data;
    ASSERT_TRUE(slurp_file(path, data).ok());
    data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
  }
  Reader fb;
  std::string fallback_error;
  ASSERT_TRUE(read_with_fallback(path, fb, &used, &fallback_error).ok());
  EXPECT_EQ(used, path + ".prev");
  EXPECT_FALSE(fallback_error.empty());
  ASSERT_TRUE(fb.open("gen", c).ok());
  ASSERT_TRUE(c.u64(generation));
  EXPECT_EQ(generation, 1u);

  // Both gone: kIo.
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  Reader none;
  EXPECT_EQ(read_with_fallback(path, none).code, Errc::kIo);
}

TEST(CkptFormat, ErrcNamesAreStable) {
  EXPECT_STREQ(errc_name(Errc::kOk), "ok");
  EXPECT_NE(std::string(errc_name(Errc::kCrcMismatch)), "");
  EXPECT_NE(std::string(errc_name(Errc::kStateDivergence)), "");
}

}  // namespace
}  // namespace sa::ckpt

// HTTP/1.1 request-parser grammar: malformed request lines, oversized
// headers, pipelined requests and partial reads — the exact surface the
// embedded server feeds it from recv() chunks.
#include <gtest/gtest.h>

#include <string>

#include "serve/http.hpp"

namespace {

using namespace sa::serve;

TEST(HttpParser, ParsesSimpleGet) {
  HttpParser p;
  ASSERT_TRUE(p.feed("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
  HttpRequest req;
  ASSERT_TRUE(p.next_request(req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/metrics");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.query, "");
  EXPECT_EQ(req.version_minor, 1);
  ASSERT_NE(req.header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.header("HOST"), "x");
  EXPECT_FALSE(p.next_request(req));
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(HttpParser, SplitsTargetIntoPathAndQuery) {
  HttpParser p;
  ASSERT_TRUE(p.feed("GET /control?cmd=pause&x=1 HTTP/1.1\r\n\r\n"));
  HttpRequest req;
  ASSERT_TRUE(p.next_request(req));
  EXPECT_EQ(req.path, "/control");
  EXPECT_EQ(req.query, "cmd=pause&x=1");
}

TEST(HttpParser, AcceptsBareLfLineEndings) {
  HttpParser p;
  ASSERT_TRUE(p.feed("GET / HTTP/1.1\nHost: y\n\n"));
  HttpRequest req;
  ASSERT_TRUE(p.next_request(req));
  ASSERT_NE(req.header("Host"), nullptr);
  EXPECT_EQ(*req.header("Host"), "y");
}

TEST(HttpParser, ReassemblesPartialReads) {
  // Byte-at-a-time delivery: nothing is ready until the final separator.
  const std::string raw =
      "POST /control HTTP/1.1\r\nContent-Length: 9\r\n\r\ncmd=pause";
  HttpParser p;
  HttpRequest req;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_TRUE(p.feed(std::string(1, raw[i])));
    ASSERT_FALSE(p.next_request(req)) << "ready after byte " << i;
  }
  ASSERT_TRUE(p.feed(std::string(1, raw.back())));
  ASSERT_TRUE(p.next_request(req));
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "cmd=pause");
}

TEST(HttpParser, QueuesPipelinedRequests) {
  HttpParser p;
  ASSERT_TRUE(
      p.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
             "POST /c HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"));
  HttpRequest req;
  ASSERT_TRUE(p.next_request(req));
  EXPECT_EQ(req.path, "/a");
  ASSERT_TRUE(p.next_request(req));
  EXPECT_EQ(req.path, "/b");
  ASSERT_TRUE(p.next_request(req));
  EXPECT_EQ(req.path, "/c");
  EXPECT_EQ(req.body, "hi");
  EXPECT_FALSE(p.next_request(req));
}

TEST(HttpParser, BodySplitAcrossFeeds) {
  HttpParser p;
  ASSERT_TRUE(p.feed("POST /c HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345"));
  HttpRequest req;
  ASSERT_FALSE(p.next_request(req));
  ASSERT_TRUE(p.feed("67890"));
  ASSERT_TRUE(p.next_request(req));
  EXPECT_EQ(req.body, "1234567890");
}

TEST(HttpParser, RejectsMalformedRequestLines) {
  for (const char* raw : {
           "GET\r\n\r\n",                        // no target/version
           "GET /x\r\n\r\n",                     // no version
           "GET /x HTTP/1.1 extra\r\n\r\n",      // trailing junk
           "G@T /x HTTP/1.1\r\n\r\n",            // method not a token
           " /x HTTP/1.1\r\n\r\n",               // empty method
       }) {
    HttpParser p;
    EXPECT_FALSE(p.feed(raw)) << raw;
    EXPECT_TRUE(p.failed());
    EXPECT_EQ(p.error_status(), 400) << raw;
  }
}

TEST(HttpParser, RejectsUnsupportedVersion) {
  HttpParser p;
  EXPECT_FALSE(p.feed("GET / HTTP/2.0\r\n\r\n"));
  EXPECT_EQ(p.error_status(), 505);
}

TEST(HttpParser, AcceptsHttp10) {
  HttpParser p;
  ASSERT_TRUE(p.feed("GET / HTTP/1.0\r\n\r\n"));
  HttpRequest req;
  ASSERT_TRUE(p.next_request(req));
  EXPECT_EQ(req.version_minor, 0);
}

TEST(HttpParser, RejectsOversizedRequestLineBeforeCompletion) {
  // A request line longer than the limit must fail *while streaming in*,
  // not after unbounded buffering.
  HttpParser p(HttpParser::Limits{.max_request_line = 64});
  std::string line = "GET /";
  line.append(1000, 'a');
  EXPECT_FALSE(p.feed(line));  // no newline yet — limit already enforced
  EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParser, RejectsOversizedHeaderBlock) {
  HttpParser p(
      HttpParser::Limits{.max_request_line = 64, .max_header_bytes = 256});
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 32; ++i) {
    raw += "X-Pad-" + std::to_string(i) + ": " + std::string(32, 'p') +
           "\r\n";
  }
  raw += "\r\n";
  EXPECT_FALSE(p.feed(raw));
  EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParser, RejectsTooManyHeaderFields) {
  HttpParser p(HttpParser::Limits{.max_headers = 4});
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 6; ++i) {
    raw.append("H").append(std::to_string(i)).append(": v\r\n");
  }
  raw += "\r\n";
  EXPECT_FALSE(p.feed(raw));
  EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParser, RejectsMalformedHeaderField) {
  HttpParser p;
  EXPECT_FALSE(p.feed("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"));
  EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParser, RejectsBadContentLength) {
  HttpParser p;
  EXPECT_FALSE(p.feed("POST / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n"));
  EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParser, RejectsOversizedBody) {
  HttpParser p(HttpParser::Limits{.max_body = 16});
  EXPECT_FALSE(p.feed("POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n"));
  EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParser, RejectsTransferEncoding) {
  HttpParser p;
  EXPECT_FALSE(
      p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
  EXPECT_EQ(p.error_status(), 501);
}

TEST(HttpParser, StaysFailedAfterError) {
  HttpParser p;
  EXPECT_FALSE(p.feed("GET / HTTP/2.0\r\n\r\n"));
  // Later (well-formed) bytes must not resurrect the connection.
  EXPECT_FALSE(p.feed("GET / HTTP/1.1\r\n\r\n"));
  HttpRequest req;
  EXPECT_FALSE(p.next_request(req));
  EXPECT_EQ(p.error_status(), 505);
}

TEST(HttpParser, CompactsConsumedPrefix) {
  // Many keep-alive requests through one parser must not grow the buffer
  // without bound.
  HttpParser p;
  HttpRequest req;
  const std::string raw = "GET /metrics HTTP/1.1\r\nHost: loop\r\n\r\n";
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(p.feed(raw));
    ASSERT_TRUE(p.next_request(req));
  }
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(HttpResponse, SerialisesHeadOnlyWithFullContentLength) {
  HttpResponse resp;
  resp.body = "0123456789";
  const std::string full = resp.serialise(/*head_only=*/false);
  const std::string head = resp.serialise(/*head_only=*/true);
  EXPECT_NE(full.find("Content-Length: 10"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 10"), std::string::npos);
  EXPECT_NE(full.find("0123456789"), std::string::npos);
  EXPECT_EQ(head.find("0123456789"), std::string::npos);
}

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(sa::serve::json_escape("a\"b\\c\nd\te\rf"),
            "a\\\"b\\\\c\\nd\\te\\rf");
  EXPECT_EQ(sa::serve::json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace

// Unit tests for the HTTP message model and the incremental HTTP/1.1
// parser: headers, serialization round-trips, Content-Length and chunked
// bodies, byte-at-a-time feeding, pipelining, and malformed input.
#include <gtest/gtest.h>

#include <ostream>

#include "httpmsg/parser.h"

namespace gremlin::httpmsg {
namespace {

// ----------------------------------------------------------------- headers

TEST(HeadersTest, CaseInsensitiveAccess) {
  Headers h;
  h.set("Content-Type", "application/json");
  EXPECT_EQ(h.get("content-type"), "application/json");
  EXPECT_EQ(h.get("CONTENT-TYPE"), "application/json");
  EXPECT_TRUE(h.has("Content-type"));
  EXPECT_FALSE(h.has("Accept"));
  EXPECT_EQ(h.get_or("Accept", "*/*"), "*/*");
}

TEST(HeadersTest, SetReplacesAddAppends) {
  Headers h;
  h.add("X-Multi", "one");
  h.add("x-multi", "two");
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.get("X-Multi"), "one");  // first value
  h.set("X-MULTI", "three");
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.get("x-multi"), "three");
  EXPECT_EQ(h.remove("x-multi"), 1);
  EXPECT_TRUE(h.empty());
}

TEST(HeadersTest, ContentLengthParsing) {
  Headers h;
  EXPECT_FALSE(h.content_length().has_value());
  h.set("Content-Length", "42");
  EXPECT_EQ(h.content_length(), 42u);
  h.set("Content-Length", "garbage");
  EXPECT_FALSE(h.content_length().has_value());
  h.set("Content-Length", "12x");
  EXPECT_FALSE(h.content_length().has_value());
}

// --------------------------------------------------------------- serialize

TEST(SerializeTest, RequestWithBody) {
  Request req;
  req.method = "POST";
  req.target = "/search";
  req.headers.set(kRequestIdHeader, "test-1");
  req.body = "q=payments";
  const std::string wire = serialize(req);
  EXPECT_NE(wire.find("POST /search HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("X-Gremlin-ID: test-1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nq=payments"), std::string::npos);
}

TEST(SerializeTest, ContentLengthAlwaysMatchesBody) {
  Request req;
  req.headers.set("Content-Length", "9999");  // stale; must be corrected
  req.body = "abc";
  const std::string wire = serialize(req);
  EXPECT_NE(wire.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("9999"), std::string::npos);
}

TEST(SerializeTest, ResponseUsesCanonicalReason) {
  Response resp = make_response(503);
  const std::string wire = serialize(resp);
  EXPECT_NE(wire.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(418), "Unknown");
}

// ------------------------------------------------------------------ parser

TEST(ParserTest, SimpleRequest) {
  Parser p(Parser::Kind::kRequest);
  const std::string wire =
      "GET /api?q=1 HTTP/1.1\r\nHost: svc\r\nX-Gremlin-ID: test-9\r\n"
      "Content-Length: 5\r\n\r\nhello";
  auto n = p.feed(wire);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), wire.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/api?q=1");
  EXPECT_EQ(p.request().version, "HTTP/1.1");
  EXPECT_EQ(p.request().request_id(), "test-9");
  EXPECT_EQ(p.request().body, "hello");
}

TEST(ParserTest, RequestWithoutBodyCompletesAtHeaders) {
  Parser p(Parser::Kind::kRequest);
  ASSERT_TRUE(p.feed("GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  EXPECT_TRUE(p.complete());
  EXPECT_TRUE(p.request().body.empty());
}

TEST(ParserTest, SimpleResponse) {
  Parser p(Parser::Kind::kResponse);
  ASSERT_TRUE(
      p.feed("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n"
             "\r\nbusy")
          .ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.response().status, 503);
  EXPECT_EQ(p.response().reason, "Service Unavailable");
  EXPECT_EQ(p.response().body, "busy");
}

TEST(ParserTest, ByteAtATime) {
  Parser p(Parser::Kind::kRequest);
  const std::string wire =
      "POST /x HTTP/1.1\r\nContent-Length: 3\r\nA: b\r\n\r\nxyz";
  for (const char c : wire) {
    auto n = p.feed(std::string_view(&c, 1));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 1u);
  }
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().body, "xyz");
  EXPECT_EQ(p.request().headers.get("a"), "b");
}

TEST(ParserTest, PipelinedRequestsLeaveSurplus) {
  Parser p(Parser::Kind::kRequest);
  const std::string first = "GET /1 HTTP/1.1\r\n\r\n";
  const std::string second = "GET /2 HTTP/1.1\r\n\r\n";
  auto n = p.feed(first + second);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), first.size());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().target, "/1");
  p.reset();
  n = p.feed(second);
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().target, "/2");
}

TEST(ParserTest, ChunkedBody) {
  Parser p(Parser::Kind::kResponse);
  ASSERT_TRUE(p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                     "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n")
                  .ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.response().body, "hello world");
}

TEST(ParserTest, ChunkedWithExtensionAndTrailer) {
  Parser p(Parser::Kind::kResponse);
  ASSERT_TRUE(p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                     "3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n")
                  .ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.response().body, "abc");
}

TEST(ParserTest, ResponseUntilClose) {
  Parser p(Parser::Kind::kResponse);
  ASSERT_TRUE(p.feed("HTTP/1.1 200 OK\r\n\r\npartial").ok());
  EXPECT_FALSE(p.complete());
  ASSERT_TRUE(p.feed(" body").ok());
  p.finish_eof();
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.response().body, "partial body");
}

TEST(ParserTest, LeadingCrlfTolerated) {
  Parser p(Parser::Kind::kRequest);
  ASSERT_TRUE(p.feed("\r\nGET / HTTP/1.1\r\n\r\n").ok());
  EXPECT_TRUE(p.complete());
}

TEST(ParserTest, BareLfLineEndingsAccepted) {
  Parser p(Parser::Kind::kRequest);
  ASSERT_TRUE(p.feed("GET / HTTP/1.1\nHost: x\n\n").ok());
  EXPECT_TRUE(p.complete());
  EXPECT_EQ(p.request().headers.get("Host"), "x");
}

struct MalformedCase {
  const char* name;
  const char* wire;
  Parser::Kind kind;
};

// Keeps the discovered test names free of pointer values.
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class MalformedTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedTest, Rejected) {
  const auto& c = GetParam();
  Parser p(c.kind);
  const auto n = p.feed(c.wire);
  EXPECT_TRUE(!n.ok() || p.state() == Parser::State::kError ||
              !p.complete())
      << c.name;
  if (!n.ok()) {
    EXPECT_EQ(p.state(), Parser::State::kError) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MalformedTest,
    ::testing::Values(
        MalformedCase{"bad_request_line", "GARBAGE\r\n\r\n",
                      Parser::Kind::kRequest},
        MalformedCase{"bad_version", "GET / JUNK/1.1\r\n\r\n",
                      Parser::Kind::kRequest},
        MalformedCase{"bad_status", "HTTP/1.1 banana OK\r\n\r\n",
                      Parser::Kind::kResponse},
        MalformedCase{"status_out_of_range", "HTTP/1.1 99 Low\r\n\r\n",
                      Parser::Kind::kResponse},
        MalformedCase{"header_no_colon",
                      "GET / HTTP/1.1\r\nBadHeader\r\n\r\n",
                      Parser::Kind::kRequest},
        MalformedCase{"empty_header_name",
                      "GET / HTTP/1.1\r\n: value\r\n\r\n",
                      Parser::Kind::kRequest},
        MalformedCase{"bad_chunk_size",
                      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                      "\r\nzz\r\n",
                      Parser::Kind::kResponse}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

TEST(ParserTest, SerializeParseRoundTrip) {
  Request req;
  req.method = "PUT";
  req.target = "/api/items/7";
  req.headers.set("X-Gremlin-ID", "test-42");
  req.headers.set("Content-Type", "application/json");
  req.body = R"({"key":"value"})";

  Parser p(Parser::Kind::kRequest);
  auto n = p.feed(serialize(req));
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().method, req.method);
  EXPECT_EQ(p.request().target, req.target);
  EXPECT_EQ(p.request().body, req.body);
  EXPECT_EQ(p.request().request_id(), "test-42");
}

TEST(ParserTest, ResetAllowsReuse) {
  Parser p(Parser::Kind::kRequest);
  ASSERT_TRUE(p.feed("GET /a HTTP/1.1\r\n\r\n").ok());
  ASSERT_TRUE(p.complete());
  p.reset();
  EXPECT_EQ(p.state(), Parser::State::kStartLine);
  ASSERT_TRUE(p.feed("GET /b HTTP/1.1\r\n\r\n").ok());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().target, "/b");
}

}  // namespace
}  // namespace gremlin::httpmsg

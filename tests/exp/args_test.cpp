#include "exp/args.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using sa::exp::Options;
using sa::exp::parse_args;
using sa::exp::usage;

std::string parse(std::vector<const char*> argv, Options& out) {
  argv.insert(argv.begin(), "prog");
  return parse_args(static_cast<int>(argv.size()), argv.data(), out);
}

TEST(ArgsTest, DefaultsWhenNoFlags) {
  Options o;
  EXPECT_EQ(parse({}, o), "");
  EXPECT_EQ(o.jobs, 0u);
  EXPECT_EQ(o.seeds, 0u);
  EXPECT_TRUE(o.json.empty());
  EXPECT_FALSE(o.help);
}

TEST(ArgsTest, ParsesAllSpellings) {
  Options o;
  EXPECT_EQ(parse({"--jobs", "8", "--seeds", "5", "--json", "out.json"}, o),
            "");
  EXPECT_EQ(o.jobs, 8u);
  EXPECT_EQ(o.seeds, 5u);
  EXPECT_EQ(o.json, "out.json");

  Options eq;
  EXPECT_EQ(parse({"--jobs=2", "--seeds=7", "--json=x.json"}, eq), "");
  EXPECT_EQ(eq.jobs, 2u);
  EXPECT_EQ(eq.seeds, 7u);
  EXPECT_EQ(eq.json, "x.json");

  Options shortj;
  EXPECT_EQ(parse({"-j", "3"}, shortj), "");
  EXPECT_EQ(shortj.jobs, 3u);
}

TEST(ArgsTest, HelpFlag) {
  Options o;
  EXPECT_EQ(parse({"--help"}, o), "");
  EXPECT_TRUE(o.help);
  Options h;
  EXPECT_EQ(parse({"-h"}, h), "");
  EXPECT_TRUE(h.help);
}

TEST(ArgsTest, RejectsUnknownFlag) {
  Options o;
  EXPECT_NE(parse({"--bogus"}, o), "");
}

TEST(ArgsTest, RejectsMissingOrBadValues) {
  Options o;
  EXPECT_NE(parse({"--jobs"}, o), "");        // missing value
  EXPECT_NE(parse({"--jobs", "zero"}, o), "");  // not a number
  EXPECT_NE(parse({"--jobs", "0"}, o), "");     // out of range
  EXPECT_NE(parse({"--jobs", "99999"}, o), "");
  EXPECT_NE(parse({"--jobs", "-4"}, o), "");    // negative
  EXPECT_NE(parse({"--seeds", "0"}, o), "");
  EXPECT_NE(parse({"--seeds"}, o), "");
  EXPECT_NE(parse({"--json"}, o), "");
  EXPECT_NE(parse({"--json="}, o), "");         // empty path
}

TEST(ArgsTest, BoundaryValuesAccepted) {
  Options o;
  EXPECT_EQ(parse({"--jobs", "1", "--seeds", "1"}, o), "");
  EXPECT_EQ(o.jobs, 1u);
  Options hi;
  EXPECT_EQ(parse({"--jobs", "4096", "--seeds", "100000"}, hi), "");
  EXPECT_EQ(hi.jobs, 4096u);
  EXPECT_EQ(hi.seeds, 100000u);
}

TEST(ArgsTest, ParsesShards) {
  Options o;
  EXPECT_EQ(parse({}, o), "");
  EXPECT_EQ(o.shards, 1u);  // default: one engine, run inline
  EXPECT_EQ(parse({"--shards", "4"}, o), "");
  EXPECT_EQ(o.shards, 4u);
  Options eq;
  EXPECT_EQ(parse({"--shards=2"}, eq), "");
  EXPECT_EQ(eq.shards, 2u);
}

TEST(ArgsTest, RejectsBadShards) {
  Options o;
  EXPECT_NE(parse({"--shards"}, o), "");
  EXPECT_NE(parse({"--shards", "0"}, o), "");
  EXPECT_NE(parse({"--shards", "junk"}, o), "");
  EXPECT_NE(parse({"--shards", "99999"}, o), "");
}

TEST(ArgsTest, ShardsPinJobsToOne) {
  // The shard workers are the parallelism; results are --jobs-invariant,
  // so pinning costs nothing and avoids oversubscription.
  Options o;
  EXPECT_EQ(parse({"--shards", "4", "--jobs", "8"}, o), "");
  EXPECT_EQ(o.shards, 4u);
  EXPECT_EQ(o.jobs, 1u);
  Options one;
  EXPECT_EQ(parse({"--shards", "1", "--jobs", "8"}, one), "");
  EXPECT_EQ(one.jobs, 8u);  // --shards 1 leaves the grid pool alone
}

TEST(ArgsTest, ShardsRejectCheckpointAndResume) {
  Options o;
  const std::string err = parse({"--shards", "2", "--checkpoint", "c.ck"}, o);
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("--shards"), std::string::npos);
  Options r;
  EXPECT_NE(parse({"--shards", "2", "--resume", "c.ck"}, r), "");
  Options legacy;
  EXPECT_EQ(parse({"--shards", "1", "--checkpoint", "c.ck"}, legacy), "");
}

TEST(ArgsTest, ShardsRejectTraceAndMetrics) {
  // Shard threads run with no tracer and no metrics registry, so either
  // file would come out empty: refused rather than written hollow.
  Options t;
  const std::string err = parse({"--shards", "2", "--trace", "t.json"}, t);
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("--trace"), std::string::npos);
  Options m;
  const std::string merr =
      parse({"--metrics", "m.jsonl", "--shards", "4"}, m);
  EXPECT_NE(merr, "");
  EXPECT_NE(merr.find("--metrics"), std::string::npos);
  Options one;
  EXPECT_EQ(parse({"--shards", "1", "--trace", "t.json"}, one), "");
  EXPECT_EQ(one.trace, "t.json");
}

TEST(ArgsTest, LaterFlagWins) {
  Options o;
  EXPECT_EQ(parse({"--jobs", "2", "--jobs", "6"}, o), "");
  EXPECT_EQ(o.jobs, 6u);
}

TEST(ArgsTest, ParsesServeFlags) {
  Options o;
  EXPECT_EQ(parse({"--serve", "9464", "--serve-linger", "2.5",
                   "--serve-bind", "0.0.0.0", "--serve-token", "s3cret"},
                  o),
            "");
  EXPECT_EQ(o.serve_port, 9464);
  EXPECT_EQ(o.serve_linger, 2.5);
  EXPECT_EQ(o.serve_address, "0.0.0.0");
  EXPECT_EQ(o.serve_token, "s3cret");

  Options eph;
  EXPECT_EQ(parse({"--serve=0"}, eph), "");
  EXPECT_EQ(eph.serve_port, 0);  // 0 = ephemeral port, distinct from...

  Options off;
  EXPECT_EQ(parse({}, off), "");
  EXPECT_EQ(off.serve_port, -1);  // ...the not-serving default
  EXPECT_EQ(off.serve_linger, 0.0);
  EXPECT_EQ(off.serve_address, "127.0.0.1");
  EXPECT_TRUE(off.serve_token.empty());
}

TEST(ArgsTest, RejectsBadServeValues) {
  Options o;
  EXPECT_NE(parse({"--serve"}, o), "");           // missing value
  EXPECT_NE(parse({"--serve", "port"}, o), "");   // not a number
  EXPECT_NE(parse({"--serve", "65536"}, o), "");  // above the port range
  EXPECT_NE(parse({"--serve", "-1"}, o), "");
  EXPECT_NE(parse({"--serve-bind", ""}, o), "");   // empty address
  EXPECT_NE(parse({"--serve-token", ""}, o), "");  // empty token
  EXPECT_NE(parse({"--serve-linger", "-2"}, o), "");
  EXPECT_NE(parse({"--serve-linger", "90000"}, o), "");  // > one day
  EXPECT_NE(parse({"--serve-linger", "soon"}, o), "");
}

TEST(ArgsTest, UsageMentionsEveryFlag) {
  const std::string u = usage("bench_x");
  EXPECT_NE(u.find("bench_x"), std::string::npos);
  EXPECT_NE(u.find("--jobs"), std::string::npos);
  EXPECT_NE(u.find("--seeds"), std::string::npos);
  EXPECT_NE(u.find("--json"), std::string::npos);
  EXPECT_NE(u.find("--serve"), std::string::npos);
  EXPECT_NE(u.find("--serve-bind"), std::string::npos);
  EXPECT_NE(u.find("--serve-token"), std::string::npos);
  EXPECT_NE(u.find("--serve-linger"), std::string::npos);
  EXPECT_NE(u.find("--help"), std::string::npos);
}

}  // namespace

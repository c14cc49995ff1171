// Protocol, admission-queue and server-robustness tests of fsi::serve.
//
// Everything here is deliberately OpenMP-free: models are tiny (every gemm
// stays under kParallelFlopThreshold, i.e. serial) and the server tests
// substitute a stub Engine, so this binary can run under the ThreadSanitizer
// CI job alongside the scheduler/executor suites (suite names carry the
// Serve prefix the TSan ctest regex selects).  The end-to-end numerical
// tests — real engine, OpenMP inside — live in test_serve.cpp.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "fsi/io/wire.hpp"
#include "fsi/obs/build.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/openmetrics_check.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/serve/client.hpp"
#include "fsi/serve/metrics_http.hpp"
#include "fsi/serve/protocol.hpp"
#include "fsi/serve/queue.hpp"
#include "fsi/serve/server.hpp"
#include "fsi/serve/socket.hpp"
#include "fsi/util/check.hpp"

namespace {

using namespace fsi;
using namespace fsi::serve;

InvertRequest tiny_request(std::uint64_t id = 1) {
  InvertRequest r;
  r.id = id;
  r.lx = 2;
  r.ly = 1;
  r.l = 2;
  r.c = 1;
  r.q = 0;
  r.seed = 3;
  r.field = random_field(r.lx, r.ly, r.l, r.seed);
  return r;
}

std::string test_socket_path(const char* tag) {
  return "unix:/tmp/fsi_serve_test_" + std::to_string(::getpid()) + "_" +
         tag + ".sock";
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(ServeProtocol, RequestRoundTrip) {
  InvertRequest r = tiny_request(42);
  r.deadline_us = 12345;
  r.time_dependent = false;
  const auto payload = encode_request(r);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertRequest);
  EXPECT_EQ(d.request.id, 42u);
  EXPECT_EQ(d.request.lx, r.lx);
  EXPECT_EQ(d.request.ly, r.ly);
  EXPECT_EQ(d.request.l, r.l);
  EXPECT_EQ(d.request.c, r.c);
  EXPECT_EQ(d.request.q, r.q);
  EXPECT_EQ(d.request.seed, r.seed);
  EXPECT_EQ(d.request.t, r.t);
  EXPECT_EQ(d.request.u, r.u);
  EXPECT_EQ(d.request.beta, r.beta);
  EXPECT_EQ(d.request.deadline_us, r.deadline_us);
  EXPECT_EQ(d.request.time_dependent, r.time_dependent);
  EXPECT_EQ(d.request.field, r.field);
}

TEST(ServeProtocol, ResponseRoundTrip) {
  InvertResponse r;
  r.id = 7;
  r.status = Status::Ok;
  r.q_used = 3;
  r.deadline_exceeded = true;
  r.queue_wait_us = 100;
  r.execute_us = 200;
  r.batch_size = 4;
  r.l = 8;
  r.dmax = 2;
  r.measurements = {1.0, -2.5, 3.25};
  r.message = "all good";
  const auto payload = encode_response(r);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertResponse);
  EXPECT_EQ(d.response.id, 7u);
  EXPECT_EQ(d.response.status, Status::Ok);
  EXPECT_EQ(d.response.q_used, 3);
  EXPECT_TRUE(d.response.deadline_exceeded);
  EXPECT_EQ(d.response.queue_wait_us, 100u);
  EXPECT_EQ(d.response.execute_us, 200u);
  EXPECT_EQ(d.response.batch_size, 4u);
  EXPECT_EQ(d.response.l, 8u);
  EXPECT_EQ(d.response.dmax, 2u);
  EXPECT_EQ(d.response.measurements, r.measurements);
  EXPECT_EQ(d.response.message, "all good");
}

TEST(ServeProtocol, V2RequestRoundTripCarriesTraceContext) {
  InvertRequest r = tiny_request(42);
  r.trace_id = 0xDEADBEEFCAFEULL;
  r.client_send_ns = 1234567890123;
  const auto payload = encode_request(r);  // defaults to kSchemaVersion
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertRequest);
  EXPECT_EQ(d.schema, kSchemaVersion);
  EXPECT_EQ(d.request.trace_id, r.trace_id);
  EXPECT_EQ(d.request.client_send_ns, r.client_send_ns);
}

TEST(ServeProtocol, V2ResponseRoundTripCarriesBreakdown) {
  InvertResponse r;
  r.id = 9;
  r.status = Status::Ok;
  r.trace_id = 0x1234;
  r.queue_wait_ns = 1111;
  r.batch_wait_ns = 2222;
  r.exec_ns = 3333;
  r.batch_occupancy = 0.625;
  const auto payload = encode_response(r);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertResponse);
  EXPECT_EQ(d.schema, kSchemaVersion);
  EXPECT_EQ(d.response.trace_id, 0x1234u);
  EXPECT_EQ(d.response.queue_wait_ns, 1111u);
  EXPECT_EQ(d.response.batch_wait_ns, 2222u);
  EXPECT_EQ(d.response.exec_ns, 3333u);
  EXPECT_DOUBLE_EQ(d.response.batch_occupancy, 0.625);
}

TEST(ServeProtocol, V1EncodingDecodesWithDefaultExtensions) {
  // A v1 frame is a strict prefix of the v2 body: decoding it must succeed
  // and leave every extension field at its default.
  InvertRequest req = tiny_request(5);
  req.trace_id = 777;          // set but not encodable in v1
  req.client_send_ns = 12345;
  const auto req_payload = encode_request(req, /*version=*/1);
  const Decoded dr = decode_payload(req_payload.data(), req_payload.size());
  EXPECT_EQ(dr.schema, 1u);
  EXPECT_EQ(dr.request.id, 5u);
  EXPECT_EQ(dr.request.trace_id, 0u);
  EXPECT_EQ(dr.request.client_send_ns, 0);

  InvertResponse resp;
  resp.id = 6;
  resp.status = Status::Ok;
  resp.trace_id = 777;
  resp.queue_wait_ns = 999;
  resp.batch_occupancy = 1.0;
  const auto resp_payload = encode_response(resp, /*version=*/1);
  const Decoded dp = decode_payload(resp_payload.data(), resp_payload.size());
  EXPECT_EQ(dp.schema, 1u);
  EXPECT_EQ(dp.response.id, 6u);
  EXPECT_EQ(dp.response.trace_id, 0u);
  EXPECT_EQ(dp.response.queue_wait_ns, 0u);
  EXPECT_EQ(dp.response.batch_occupancy, 0.0);
}

TEST(ServeProtocol, V3RoundTripCarriesPrecision) {
  InvertRequest r = tiny_request(11);
  r.precision = 1;  // mixed
  const auto payload = encode_request(r);  // defaults to kSchemaVersion (3)
  const Decoded d = decode_payload(payload.data(), payload.size());
  EXPECT_EQ(d.schema, kSchemaVersion);
  EXPECT_EQ(d.request.precision, 1u);

  InvertResponse resp;
  resp.id = 12;
  resp.status = Status::Ok;
  resp.precision_used = 1;
  resp.mixed_fallback = true;
  const auto resp_payload = encode_response(resp);
  const Decoded dp = decode_payload(resp_payload.data(), resp_payload.size());
  EXPECT_EQ(dp.schema, kSchemaVersion);
  EXPECT_EQ(dp.response.precision_used, 1u);
  EXPECT_TRUE(dp.response.mixed_fallback);
}

TEST(ServeProtocol, V2EncodingDropsPrecisionFields) {
  // A v2 frame is a strict prefix of the v3 body: precision never travels
  // and decodes to the fp64 default, so a v2 client sees today's protocol.
  InvertRequest req = tiny_request(13);
  req.precision = 1;
  const auto req_payload = encode_request(req, /*version=*/2);
  const Decoded dr = decode_payload(req_payload.data(), req_payload.size());
  EXPECT_EQ(dr.schema, 2u);
  EXPECT_EQ(dr.request.precision, 0u);

  InvertResponse resp;
  resp.id = 14;
  resp.status = Status::Ok;
  resp.precision_used = 1;
  resp.mixed_fallback = true;
  const auto resp_payload = encode_response(resp, /*version=*/2);
  const Decoded dp = decode_payload(resp_payload.data(), resp_payload.size());
  EXPECT_EQ(dp.schema, 2u);
  EXPECT_EQ(dp.response.precision_used, 0u);
  EXPECT_FALSE(dp.response.mixed_fallback);
}

TEST(ServeProtocol, ValidateRejectsUnknownPrecision) {
  InvertRequest r = tiny_request(15);
  r.precision = 2;  // only 0 (fp64) and 1 (mixed) are defined
  const std::string why = validate_request(r);
  EXPECT_NE(why.find("precision"), std::string::npos) << why;
  r.precision = 1;
  EXPECT_EQ(validate_request(r), "");
}

TEST(ServeQueue, BatchKeySeparatesPrecisions) {
  // A mixed and an fp64 request must never coalesce into one engine run:
  // precision is part of the BatchKey.
  PendingRequest a;
  a.request = tiny_request(1);
  PendingRequest b;
  b.request = tiny_request(2);
  b.request.precision = 1;
  EXPECT_FALSE(a.key() == b.key());

  PendingRequest c;
  c.request = tiny_request(3);
  EXPECT_TRUE(a.key() == c.key());

  AdmissionQueue q(8);
  ASSERT_TRUE(q.try_push(std::move(a)));
  ASSERT_TRUE(q.try_push(std::move(b)));
  ASSERT_TRUE(q.try_push(std::move(c)));
  const auto batch = q.next_batch(8);
  ASSERT_EQ(batch.size(), 2u);  // the two fp64 requests; mixed stays queued
  EXPECT_EQ(batch[0].request.id, 1u);
  EXPECT_EQ(batch[1].request.id, 3u);
  EXPECT_EQ(q.depth(), 1u);
}

TEST(ServeProtocol, StatsRoundTrip) {
  StatsResponse s;
  s.id = 31;
  s.uptime_ns = 123456789;
  s.connections = 1;
  s.admitted = 2;
  s.served_ok = 3;
  s.rejected_full = 4;
  s.deadline_miss = 5;
  s.cancelled = 6;
  s.malformed = 7;
  s.errors = 8;
  s.shed_shutdown = 9;
  s.batches = 10;
  s.batched_requests = 11;
  s.models_built = 3;
  s.model_cache_hits = 9;
  s.model_cache_size = 2;
  s.queue_depth = 12;
  s.queue_high_water = 13;
  s.queue_capacity = 64;
  s.latency_s = WindowStat{100, 0.5, 0.4, 0.9, 0.99};
  s.queue_wait_s = WindowStat{100, 0.1, 0.05, 0.2, 0.3};
  s.occupancy = WindowStat{10, 0.75, 0.8, 1.0, 1.0};
  s.build_version = "1.2.3";
  s.build_git_sha = "abc1234+dirty";
  s.build_compiler = "testcc 0.0";
  s.build_type = "Release";

  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.id, 31u);
  EXPECT_EQ(d.stats.stats_version, kStatsVersion);
  EXPECT_EQ(d.stats.uptime_ns, 123456789u);
  EXPECT_EQ(d.stats.connections, 1u);
  EXPECT_EQ(d.stats.admitted, 2u);
  EXPECT_EQ(d.stats.served_ok, 3u);
  EXPECT_EQ(d.stats.rejected_full, 4u);
  EXPECT_EQ(d.stats.deadline_miss, 5u);
  EXPECT_EQ(d.stats.cancelled, 6u);
  EXPECT_EQ(d.stats.malformed, 7u);
  EXPECT_EQ(d.stats.errors, 8u);
  EXPECT_EQ(d.stats.shed_shutdown, 9u);
  EXPECT_EQ(d.stats.batches, 10u);
  EXPECT_EQ(d.stats.batched_requests, 11u);
  EXPECT_EQ(d.stats.models_built, 3u);
  EXPECT_EQ(d.stats.model_cache_hits, 9u);
  EXPECT_EQ(d.stats.model_cache_size, 2u);
  EXPECT_EQ(d.stats.queue_depth, 12u);
  EXPECT_EQ(d.stats.queue_high_water, 13u);
  EXPECT_EQ(d.stats.queue_capacity, 64u);
  EXPECT_DOUBLE_EQ(d.stats.model_cache_hit_rate(), 0.75);
  EXPECT_EQ(d.stats.latency_s.count, 100u);
  EXPECT_DOUBLE_EQ(d.stats.latency_s.p95, 0.9);
  EXPECT_DOUBLE_EQ(d.stats.queue_wait_s.mean, 0.1);
  EXPECT_DOUBLE_EQ(d.stats.occupancy.p99, 1.0);
  EXPECT_EQ(d.stats.build_version, "1.2.3");
  EXPECT_EQ(d.stats.build_git_sha, "abc1234+dirty");
  EXPECT_EQ(d.stats.build_compiler, "testcc 0.0");
  EXPECT_EQ(d.stats.build_type, "Release");

  const auto req_payload = encode_stats_request(17);
  const Decoded dq = decode_payload(req_payload.data(), req_payload.size());
  ASSERT_EQ(dq.type, MsgType::StatsRequest);
  EXPECT_EQ(dq.stats.id, 17u);
}

TEST(ServeProtocol, StatsV1SnapshotRoundTripsWithoutBuildStrings) {
  // A v1-tagged snapshot (old daemon) carries no build provenance on the
  // wire.  Both encode and decode gate on the snapshot's own version, so a
  // decoded v1 snapshot re-encodes byte-identically and its build strings
  // stay empty instead of desynchronising the reader.
  StatsResponse s;
  s.id = 5;
  s.stats_version = 1;
  s.served_ok = 42;
  s.build_version = "should-not-travel";
  s.build_git_sha = "deadbee";

  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.stats_version, 1u);
  EXPECT_EQ(d.stats.served_ok, 42u);
  EXPECT_TRUE(d.stats.build_version.empty());
  EXPECT_TRUE(d.stats.build_git_sha.empty());
  EXPECT_TRUE(d.stats.build_compiler.empty());
  EXPECT_TRUE(d.stats.build_type.empty());

  const auto again = encode_stats_response(d.stats);
  EXPECT_EQ(again, payload);
}

TEST(ServeProtocol, StatsV4RoundTripCarriesMixedTotalsAndPolicyRows) {
  StatsResponse s;
  s.id = 51;
  s.served_ok = 7;
  s.mixed_runs = 40;
  s.mixed_fallbacks = 3;
  s.policy_rows.push_back(PolicyKeyRow{0xDEADBEEFCAFEF00Dull, 1500, 8,
                                       /*bypass=*/false, 2.25});
  s.policy_rows.push_back(PolicyKeyRow{42, 0, 1, /*bypass=*/true, 0.97});

  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.stats_version, kStatsVersion);
  EXPECT_EQ(d.stats.mixed_runs, 40u);
  EXPECT_EQ(d.stats.mixed_fallbacks, 3u);
  ASSERT_EQ(d.stats.policy_rows.size(), 2u);
  EXPECT_EQ(d.stats.policy_rows[0].key_hash, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(d.stats.policy_rows[0].window_us, 1500);
  EXPECT_EQ(d.stats.policy_rows[0].max_batch, 8u);
  EXPECT_FALSE(d.stats.policy_rows[0].bypass);
  EXPECT_DOUBLE_EQ(d.stats.policy_rows[0].speedup, 2.25);
  EXPECT_EQ(d.stats.policy_rows[1].key_hash, 42u);
  EXPECT_TRUE(d.stats.policy_rows[1].bypass);
  EXPECT_DOUBLE_EQ(d.stats.policy_rows[1].speedup, 0.97);
}

TEST(ServeProtocol, StatsV3SnapshotRoundTripsWithoutMixedFields) {
  // A v3-tagged snapshot (pre-mixed daemon) carries no mixed totals and no
  // policy table on the wire: the fields decode to their zero defaults and
  // the snapshot re-encodes byte-identically, mirroring the v1 guarantee.
  StatsResponse s;
  s.id = 52;
  s.stats_version = 3;
  s.served_ok = 19;
  s.adaptive_enabled = true;
  s.policy_keys = 2;
  s.mixed_runs = 99;  // must not travel in a v3 body
  s.policy_rows.push_back(PolicyKeyRow{1, 2, 3, false, 4.0});

  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.stats_version, 3u);
  EXPECT_EQ(d.stats.served_ok, 19u);
  EXPECT_TRUE(d.stats.adaptive_enabled);
  EXPECT_EQ(d.stats.policy_keys, 2u);
  EXPECT_EQ(d.stats.mixed_runs, 0u);
  EXPECT_EQ(d.stats.mixed_fallbacks, 0u);
  EXPECT_TRUE(d.stats.policy_rows.empty());

  const auto again = encode_stats_response(d.stats);
  EXPECT_EQ(again, payload);
}

TEST(ServeProtocol, StatsMessagesUnknownUnderSchemaV1) {
  // v1 never had the Stats pair: a v1-stamped StatsRequest must be rejected
  // as an unknown message type, not silently half-decoded.
  auto payload = encode_stats_request(3);
  const std::uint32_t v1 = 1;
  std::memcpy(payload.data(), &v1, sizeof v1);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()),
               util::CheckError);
}

TEST(ServeProtocol, TruncatedPayloadThrows) {
  const auto payload = encode_request(tiny_request());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{17}, payload.size() - 1}) {
    EXPECT_THROW(decode_payload(payload.data(), keep), util::CheckError)
        << "kept " << keep << " bytes";
  }
}

TEST(ServeProtocol, SchemaMismatchThrowsDistinctType) {
  auto payload = encode_request(tiny_request());
  const std::uint32_t bad_version = kSchemaVersion + 7;
  std::memcpy(payload.data(), &bad_version, sizeof bad_version);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), SchemaMismatch);
  try {
    decode_payload(payload.data(), payload.size());
    FAIL() << "expected SchemaMismatch";
  } catch (const SchemaMismatch& e) {
    EXPECT_EQ(e.got_version, bad_version);
  }
}

TEST(ServeProtocol, TrailingBytesThrow) {
  auto payload = encode_request(tiny_request());
  payload.push_back(0xAB);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()),
               util::CheckError);
}

TEST(ServeWire, HostileVectorCountRejectedWithoutAllocation) {
  // A count near 2^64 chosen so that `count * sizeof(double)` wraps to a
  // small value: the length check must not be fooled into attempting a
  // multi-exabyte vector allocation (std::length_error / bad_alloc).
  io::WireWriter w;
  w.put_u64(0x2000000000000001ULL);
  w.put_f64(0.0);  // 8 bytes remaining — equals the wrapped product
  const auto bytes = w.take();
  io::WireReader r(bytes.data(), bytes.size());
  EXPECT_THROW(r.get_f64_vector(), util::CheckError);
}

TEST(ServeProtocol, UnknownMessageTypeThrows) {
  auto payload = encode_request(tiny_request());
  const std::uint32_t bad_type = 99;
  std::memcpy(payload.data() + sizeof(std::uint32_t), &bad_type,
              sizeof bad_type);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()),
               util::CheckError);
}

// ---------------------------------------------------------------------------
// Framing

TEST(ServeFrameParser, ByteByByteDelivery) {
  const auto p1 = encode_request(tiny_request(1));
  const auto p2 = encode_response(InvertResponse{});
  std::vector<std::uint8_t> stream;
  append_frame(stream, p1);
  append_frame(stream, p2);

  FrameParser parser;
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> payload;
  for (const std::uint8_t byte : stream) {
    parser.feed(&byte, 1);
    while (parser.next(payload)) got.push_back(payload);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], p1);
  EXPECT_EQ(got[1], p2);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(ServeFrameParser, BadMagicThrows) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, encode_request(tiny_request()));
  stream[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(stream.data(), stream.size());
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(parser.next(payload), util::CheckError);
}

TEST(ServeFrameParser, OversizedFrameThrows) {
  // Declared length above the parser's bound: rejected from the header
  // alone, before any allocation of the declared size.
  std::vector<std::uint8_t> header;
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t huge = 1u << 20;
  header.resize(8);
  std::memcpy(header.data(), &magic, 4);
  std::memcpy(header.data() + 4, &huge, 4);
  FrameParser parser(/*max_frame_bytes=*/1u << 16);
  parser.feed(header.data(), header.size());
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(parser.next(payload), util::CheckError);
}

TEST(ServeFrameParser, TruncatedFrameStaysPending) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, encode_request(tiny_request()));
  FrameParser parser;
  parser.feed(stream.data(), stream.size() - 5);
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(parser.next(payload));  // incomplete: no frame, no throw
  parser.feed(stream.data() + stream.size() - 5, 5);
  EXPECT_TRUE(parser.next(payload));
}

// ---------------------------------------------------------------------------
// Validation and derived quantities

TEST(ServeProtocol, ValidateRequestCatchesBadInputs) {
  EXPECT_EQ(validate_request(tiny_request()), "");

  InvertRequest r = tiny_request();
  r.lx = 0;
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.c = 3;  // does not divide L = 2
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.q = 5;  // c = 1, so q must be 0
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.field.pop_back();
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.field[0] = 0.5;  // not an Ising value
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.beta = -1.0;
  EXPECT_NE(validate_request(r), "");

  // Non-finite physics parameters: NaN is caught by self-comparison tricks,
  // but +-infinity must be rejected too — an inf model would poison the
  // server's model cache under that key.
  const double inf = std::numeric_limits<double>::infinity();
  r = tiny_request();
  r.t = inf;
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.u = -inf;
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.beta = inf;
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(validate_request(r), "");
}

TEST(ServeProtocol, ResolveQDeterministicAndInRange) {
  InvertRequest r = tiny_request();
  r.l = 8;
  r.c = 4;
  r.q = -1;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    r.seed = seed;
    const index_t q1 = resolve_q(r, 4);
    const index_t q2 = resolve_q(r, 4);
    EXPECT_EQ(q1, q2);
    EXPECT_GE(q1, 0);
    EXPECT_LT(q1, 4);
  }
  r.q = 2;
  EXPECT_EQ(resolve_q(r, 4), 2);
}

TEST(ServeEndpoint, ParseSpecs) {
  const Endpoint u = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_TRUE(u.is_unix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.describe(), "unix:/tmp/x.sock");

  const Endpoint t = Endpoint::parse("tcp:127.0.0.1:7070");
  EXPECT_FALSE(t.is_unix);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7070);

  EXPECT_THROW(Endpoint::parse("http://x"), util::CheckError);
  EXPECT_THROW(Endpoint::parse("unix:"), util::CheckError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:notaport"), util::CheckError);
}

// ---------------------------------------------------------------------------
// Admission queue

PendingRequest pending(std::uint64_t id, std::uint32_t l = 2) {
  PendingRequest p;
  p.request = tiny_request(id);
  p.request.l = l;
  p.c = 1;
  p.q = 0;
  p.respond = [](InvertResponse&&) {};
  p.alive = [] { return true; };
  return p;
}

TEST(ServeQueue, BoundedPushExplicitOverflow) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.try_push(pending(1)));
  EXPECT_TRUE(q.try_push(pending(2)));
  EXPECT_FALSE(q.try_push(pending(3)));  // full: caller sheds explicitly
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.max_depth_seen(), 2u);
}

TEST(ServeQueue, CoalescesSameKeyOnly) {
  AdmissionQueue q(8);
  ASSERT_TRUE(q.try_push(pending(1, /*l=*/2)));
  ASSERT_TRUE(q.try_push(pending(2, /*l=*/4)));  // different key
  ASSERT_TRUE(q.try_push(pending(3, /*l=*/2)));

  auto batch = q.next_batch(8);
  ASSERT_EQ(batch.size(), 2u);  // ids 1 and 3 coalesce; 2 stays queued
  EXPECT_EQ(batch[0].request.id, 1u);
  EXPECT_EQ(batch[1].request.id, 3u);
  EXPECT_EQ(q.depth(), 1u);

  batch = q.next_batch(8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.id, 2u);
}

TEST(ServeQueue, MaxBatchBounds) {
  AdmissionQueue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(pending(i)));
  const auto batch = q.next_batch(3);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(ServeQueue, LoneRequestReturnsAtOnceOtherKeysStayQueued) {
  // No straggler window: a lone request of its key dispatches alone and
  // at once, and requests of other keys keep their arrival order.
  AdmissionQueue q(8);
  ASSERT_TRUE(q.try_push(pending(1, /*l=*/2)));
  ASSERT_TRUE(q.try_push(pending(2, /*l=*/4)));
  ASSERT_TRUE(q.try_push(pending(3, /*l=*/6)));
  ASSERT_TRUE(q.try_push(pending(4, /*l=*/4)));

  const auto t0 = std::chrono::steady_clock::now();
  auto batch = q.next_batch(8);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.id, 1u);
  EXPECT_EQ(q.depth(), 3u);

  batch = q.next_batch(8);
  ASSERT_EQ(batch.size(), 2u);  // the two l=4 requests, in arrival order
  EXPECT_EQ(batch[0].request.id, 2u);
  EXPECT_EQ(batch[1].request.id, 4u);
  batch = q.next_batch(8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.id, 3u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(ServeQueue, ShutdownWakesAndDrains) {
  AdmissionQueue q(8);
  std::thread stopper([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.shutdown();
  });
  const auto batch = q.next_batch(8);
  stopper.join();
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(q.try_push(pending(9)));  // shut down: nothing admitted
}

// ---------------------------------------------------------------------------
// AdmissionQueue per-client quota

PendingRequest quota_request(std::uint64_t id, std::uint64_t client) {
  PendingRequest p;
  p.request.id = id;
  p.client_id = client;
  return p;
}

TEST(ServeQuota, OverQuotaClientIsRejectedOthersAdmitted) {
  AdmissionQueue q(8, 2);
  EXPECT_EQ(q.admit(quota_request(1, 1)), Admit::Ok);
  EXPECT_EQ(q.admit(quota_request(2, 1)), Admit::Ok);
  EXPECT_EQ(q.admit(quota_request(3, 1)), Admit::OverQuota);
  EXPECT_EQ(q.client_depth(1), 2u);
  // A different client still gets in: the quota is the fairness mechanism.
  EXPECT_EQ(q.admit(quota_request(4, 2)), Admit::Ok);
  EXPECT_EQ(q.depth(), 3u);
}

TEST(ServeQuota, UnattributedRequestsAreNeverQuotaLimited) {
  AdmissionQueue q(8, 1);
  for (std::uint64_t i = 0; i < 5; ++i)
    EXPECT_EQ(q.admit(quota_request(i, 0)), Admit::Ok);
}

TEST(ServeQuota, SlotsReleaseWhenBatchPops) {
  AdmissionQueue q(8, 2);
  ASSERT_EQ(q.admit(quota_request(1, 7)), Admit::Ok);
  ASSERT_EQ(q.admit(quota_request(2, 7)), Admit::Ok);
  ASSERT_EQ(q.admit(quota_request(3, 7)), Admit::OverQuota);
  const auto batch = q.next_batch(8);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.client_depth(7), 0u);
  EXPECT_EQ(q.admit(quota_request(4, 7)), Admit::Ok);
}

TEST(ServeQuota, FullQueueReportsFullNotQuota) {
  AdmissionQueue q(2, 8);
  EXPECT_EQ(q.admit(quota_request(1, 1)), Admit::Ok);
  EXPECT_EQ(q.admit(quota_request(2, 1)), Admit::Ok);
  EXPECT_EQ(q.admit(quota_request(3, 1)), Admit::Full);
}

TEST(ServeQuota, DrainClearsQuotaAccounting) {
  AdmissionQueue q(8, 1);
  ASSERT_EQ(q.admit(quota_request(1, 5)), Admit::Ok);
  ASSERT_EQ(q.admit(quota_request(2, 5)), Admit::OverQuota);
  const auto drained = q.drain();
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_EQ(q.client_depth(5), 0u);
}

// ---------------------------------------------------------------------------
// Stats v3 wire block

TEST(ServeStatsV3, RoundTripsPolicyBlock) {
  StatsResponse s;
  s.id = 99;
  s.stats_version = kStatsVersion;
  s.admitted = 10;
  s.rejected_quota = 3;
  s.replicas = 2;
  s.adaptive_enabled = true;
  s.policy_keys = 5;
  s.policy_window_us = 125;
  s.policy_max_batch = 4;
  s.policy_bypass = true;
  s.policy_speedup = 0.47;
  s.bypass_enters = 2;
  s.bypass_exits = 1;
  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.rejected_quota, 3u);
  EXPECT_EQ(d.stats.replicas, 2u);
  EXPECT_TRUE(d.stats.adaptive_enabled);
  EXPECT_EQ(d.stats.policy_keys, 5u);
  EXPECT_EQ(d.stats.policy_window_us, 125);
  EXPECT_EQ(d.stats.policy_max_batch, 4u);
  EXPECT_TRUE(d.stats.policy_bypass);
  EXPECT_DOUBLE_EQ(d.stats.policy_speedup, 0.47);
  EXPECT_EQ(d.stats.bypass_enters, 2u);
  EXPECT_EQ(d.stats.bypass_exits, 1u);
}

TEST(ServeStatsV3, V2SnapshotRoundTripsWithoutPolicyBlock) {
  // A snapshot tagged v2 must encode byte-compatibly with the pre-v3 layout
  // (no trailing policy block) and decode with v3 defaults.
  StatsResponse s;
  s.stats_version = 2;
  s.admitted = 7;
  s.rejected_quota = 99;  // must NOT survive: v2 has no such field
  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.admitted, 7u);
  EXPECT_EQ(d.stats.rejected_quota, 0u);
  EXPECT_EQ(d.stats.replicas, 0u);
  EXPECT_FALSE(d.stats.adaptive_enabled);
}

// ---------------------------------------------------------------------------
// Server robustness with a stub engine (no OpenMP anywhere on these paths)

/// Engine stub: optionally blocks until release(); returns one Measurements
/// per task with a deterministic sample count.
struct GateEngine {
  std::mutex mu;
  std::condition_variable cv;
  bool released = true;
  std::atomic<int> calls{0};
  std::atomic<int> started{0};

  void hold() {
    std::lock_guard<std::mutex> lock(mu);
    released = false;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
  bool wait_started(int n, int timeout_ms = 5000) {
    const auto stop = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(timeout_ms);
    while (started.load() < n) {
      if (std::chrono::steady_clock::now() > stop) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  Engine engine() {
    return [this](const qmc::HubbardModel& model,
                  const std::vector<qmc::FsiBatchTask>& tasks,
                  const qmc::FsiBatchOptions&) {
      started.fetch_add(1);
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return released; });
      }
      calls.fetch_add(1);
      std::vector<qmc::Measurements> out;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        qmc::Measurements m(model.params().l,
                            model.lattice().num_distance_classes());
        m.add_sample(1.0);
        out.push_back(std::move(m));
      }
      return out;
    };
  }
};

ServerOptions stub_options(const std::string& socket_spec, GateEngine& gate) {
  ServerOptions o;
  o.endpoint = Endpoint::parse(socket_spec);
  o.queue_depth = 2;
  o.max_batch = 1;
  o.retry_after_ms = 7;
  o.engine = gate.engine();
  return o;
}

TEST(ServeServer, StubRoundTripOverUnixSocket) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("roundtrip"), gate));
  server.start();

  Client client(server.endpoint());
  const InvertResponse r = client.request(tiny_request());
  EXPECT_EQ(r.status, Status::Ok);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_EQ(r.l, 2u);
  EXPECT_FALSE(r.measurements.empty());

  server.stop();
  EXPECT_EQ(server.stats().served_ok, 1u);
}

TEST(ServeServer, OverloadShedsWithRetryAfter) {
  GateEngine gate;
  gate.hold();
  Server server(stub_options(test_socket_path("overload"), gate));
  server.start();
  Client client(server.endpoint());

  // First request occupies the engine (batcher popped it off the queue).
  auto f0 = client.submit(tiny_request(1));
  ASSERT_TRUE(gate.wait_started(1));

  // Two more fill the bounded queue; the rest must shed with RetryAfter —
  // explicit backpressure, not unbounded buffering.
  auto f1 = client.submit(tiny_request(2));
  auto f2 = client.submit(tiny_request(3));
  // Give the reader a moment to admit both before overflowing.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.stats().admitted, 3u);

  auto f3 = client.submit(tiny_request(4));
  auto f4 = client.submit(tiny_request(5));
  const InvertResponse r3 = f3.get();
  const InvertResponse r4 = f4.get();
  EXPECT_EQ(r3.status, Status::RetryAfter);
  EXPECT_EQ(r3.retry_after_ms, 7u);
  EXPECT_EQ(r4.status, Status::RetryAfter);

  gate.release();
  EXPECT_EQ(f0.get().status, Status::Ok);
  EXPECT_EQ(f1.get().status, Status::Ok);
  EXPECT_EQ(f2.get().status, Status::Ok);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.served_ok, 3u);
  EXPECT_EQ(s.rejected_full, 2u);
  EXPECT_EQ(s.queue_high_water, 2u);
}

TEST(ServeServer, DeadlineExpiredOnArrival) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("dl_arrival"), gate));
  server.start();
  Client client(server.endpoint());

  InvertRequest r = tiny_request();
  r.deadline_us = -1;
  const InvertResponse resp = client.request(std::move(r));
  EXPECT_EQ(resp.status, Status::DeadlineMiss);

  server.stop();
  EXPECT_EQ(server.stats().deadline_miss, 1u);
  EXPECT_EQ(server.stats().served_ok, 0u);
  EXPECT_EQ(gate.calls.load(), 0);  // never reached the engine
}

TEST(ServeServer, HugeDeadlineDoesNotOverflowOrExpire) {
  // deadline_us = INT64_MAX used to overflow `arrival_ns + deadline_us *
  // 1000` (signed overflow, UB) and could wrap to a negative deadline that
  // expired instantly.  The server now clamps the budget; the request must
  // be served normally.
  GateEngine gate;
  Server server(stub_options(test_socket_path("huge_dl"), gate));
  server.start();
  Client client(server.endpoint());

  InvertRequest r = tiny_request();
  r.deadline_us = std::numeric_limits<std::int64_t>::max();
  const InvertResponse resp = client.request(std::move(r));
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_FALSE(resp.deadline_exceeded);

  server.stop();
  EXPECT_EQ(server.stats().deadline_miss, 0u);
  EXPECT_EQ(server.stats().served_ok, 1u);
}

TEST(ServeServer, DeadlineExpiresWhileQueued) {
  GateEngine gate;
  gate.hold();
  Server server(stub_options(test_socket_path("dl_queue"), gate));
  server.start();
  Client client(server.endpoint());

  auto f0 = client.submit(tiny_request(1));  // blocks the engine
  ASSERT_TRUE(gate.wait_started(1));

  InvertRequest r = tiny_request(2);
  r.deadline_us = 1000;  // 1 ms — will expire while the engine is held
  auto f1 = client.submit(std::move(r));

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.release();

  EXPECT_EQ(f0.get().status, Status::Ok);
  const InvertResponse r1 = f1.get();
  EXPECT_EQ(r1.status, Status::DeadlineMiss);
  EXPECT_GE(r1.queue_wait_us, 1000u);

  server.stop();
  EXPECT_EQ(gate.calls.load(), 1);  // the expired request never executed
}

TEST(ServeServer, MalformedRequestRejectedConnectionSurvives) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("malformed"), gate));
  server.start();
  Client client(server.endpoint());

  InvertRequest bad = tiny_request();
  bad.field.pop_back();  // wrong length
  const InvertResponse r = client.request(std::move(bad));
  EXPECT_EQ(r.status, Status::Malformed);
  EXPECT_NE(r.message.find("field length"), std::string::npos);

  // Same connection keeps working.
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  server.stop();
}

TEST(ServeServer, WrongSchemaAnsweredMalformed) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("schema"), gate));
  server.start();

  Socket raw = connect_to(server.endpoint());
  auto payload = encode_request(tiny_request());
  const std::uint32_t bad_version = 99;
  std::memcpy(payload.data(), &bad_version, sizeof bad_version);
  std::vector<std::uint8_t> frame;
  append_frame(frame, payload);
  ASSERT_TRUE(raw.send_all(frame.data(), frame.size()));

  FrameParser parser;
  std::vector<std::uint8_t> resp_payload;
  std::uint8_t buf[4096];
  while (!parser.next(resp_payload)) {
    const long got = raw.recv_some(buf, sizeof buf);
    ASSERT_GT(got, 0);
    parser.feed(buf, static_cast<std::size_t>(got));
  }
  const Decoded d = decode_payload(resp_payload.data(), resp_payload.size());
  ASSERT_EQ(d.type, MsgType::InvertResponse);
  EXPECT_EQ(d.response.status, Status::Malformed);
  EXPECT_NE(d.response.message.find("schema"), std::string::npos);
  raw.close();

  // The daemon keeps serving.
  Client client(server.endpoint());
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  server.stop();
}

TEST(ServeServer, HostileFieldCountAnsweredMalformedDaemonSurvives) {
  // The original remote-DoS shape: a well-framed request whose field-vector
  // length prefix is a wrap-inducing u64.  The decode must fail as a bounds
  // check (answered Malformed), not escape the reader thread as
  // std::length_error and terminate the daemon.
  GateEngine gate;
  Server server(stub_options(test_socket_path("hostile_count"), gate));
  server.start();

  io::WireWriter w;
  w.put_u32(kSchemaVersion);
  w.put_u32(static_cast<std::uint32_t>(MsgType::InvertRequest));
  w.put_u64(77);   // id
  w.put_u32(2);    // lx
  w.put_u32(1);    // ly
  w.put_u32(2);    // l
  w.put_u32(1);    // c
  w.put_i32(0);    // q
  w.put_u64(3);    // seed
  w.put_f64(1.0);  // t
  w.put_f64(2.0);  // u
  w.put_f64(1.0);  // beta
  w.put_i64(0);    // deadline_us
  w.put_u8(0);     // time_dependent
  w.put_u64(0x2000000000000001ULL);  // hostile field count
  w.put_f64(0.0);  // 8 bytes of "field" — matches the wrapped product
  std::vector<std::uint8_t> frame;
  append_frame(frame, w.take());

  Socket raw = connect_to(server.endpoint());
  ASSERT_TRUE(raw.send_all(frame.data(), frame.size()));
  FrameParser parser;
  std::vector<std::uint8_t> resp_payload;
  std::uint8_t buf[4096];
  while (!parser.next(resp_payload)) {
    const long got = raw.recv_some(buf, sizeof buf);
    ASSERT_GT(got, 0);
    parser.feed(buf, static_cast<std::size_t>(got));
  }
  const Decoded d = decode_payload(resp_payload.data(), resp_payload.size());
  ASSERT_EQ(d.type, MsgType::InvertResponse);
  EXPECT_EQ(d.response.status, Status::Malformed);
  raw.close();

  // The daemon keeps serving.
  Client client(server.endpoint());
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  server.stop();
}

TEST(ServeServer, ModelCacheStaysBounded) {
  // The model cache is keyed on client-supplied (t, u, beta): a client
  // sweeping parameters must not grow server memory without bound.
  GateEngine gate;
  ServerOptions o = stub_options(test_socket_path("model_cache"), gate);
  o.queue_depth = 64;
  Server server(std::move(o));
  server.start();
  Client client(server.endpoint());

  for (int i = 0; i < 12; ++i) {
    InvertRequest r = tiny_request(static_cast<std::uint64_t>(i));
    r.beta = 1.0 + 0.25 * i;  // distinct batch key per request
    ASSERT_EQ(client.request(std::move(r)).status, Status::Ok);
  }
  // A repeat of the most recent key is a cache hit, not a rebuild.
  InvertRequest again = tiny_request(99);
  again.beta = 1.0 + 0.25 * 11;
  ASSERT_EQ(client.request(std::move(again)).status, Status::Ok);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.models_built, 12u);      // 12 distinct keys, 1 hit
  EXPECT_LE(s.model_cache_size, 8u);   // kModelCacheCap: old entries evicted
  EXPECT_EQ(s.served_ok, 13u);
}

TEST(ServeServer, TruncatedFrameDisconnectKeepsServing) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("truncated"), gate));
  server.start();

  {
    // Send half a request frame, then vanish mid-request.
    Socket raw = connect_to(server.endpoint());
    std::vector<std::uint8_t> frame;
    append_frame(frame, encode_request(tiny_request()));
    ASSERT_TRUE(raw.send_all(frame.data(), frame.size() / 2));
    raw.close();
  }
  {
    // Oversized declared length: the server answers Malformed and closes.
    Socket raw = connect_to(server.endpoint());
    std::uint8_t header[8];
    const std::uint32_t magic = kFrameMagic;
    const std::uint32_t huge = (64u << 20) + 1;
    std::memcpy(header, &magic, 4);
    std::memcpy(header + 4, &huge, 4);
    ASSERT_TRUE(raw.send_all(header, sizeof header));
    std::uint8_t buf[4096];
    while (raw.recv_some(buf, sizeof buf) > 0) {
    }  // drain until the server closes
  }

  Client client(server.endpoint());
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  server.stop();
  EXPECT_EQ(server.stats().served_ok, 1u);
}

TEST(ServeServer, DisconnectWhileQueuedCancels) {
  GateEngine gate;
  gate.hold();
  Server server(stub_options(test_socket_path("cancel"), gate));
  server.start();

  Client keeper(server.endpoint());
  auto f0 = keeper.submit(tiny_request(1));  // blocks the engine
  ASSERT_TRUE(gate.wait_started(1));

  {
    Client quitter(server.endpoint());
    auto f1 = quitter.submit(tiny_request(2));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().admitted < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.stats().admitted, 2u);
    // quitter's destructor closes the connection with the request queued.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();

  EXPECT_EQ(f0.get().status, Status::Ok);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.served_ok, 1u);
  EXPECT_EQ(s.cancelled, 1u);  // dropped without touching the engine
  EXPECT_EQ(gate.calls.load(), 1);
}

TEST(ServeServer, StopAnswersQueuedWithShuttingDown) {
  GateEngine gate;
  gate.hold();
  Server server(stub_options(test_socket_path("shutdown"), gate));
  server.start();
  Client client(server.endpoint());

  auto f0 = client.submit(tiny_request(1));  // in flight, engine held
  ASSERT_TRUE(gate.wait_started(1));
  auto f1 = client.submit(tiny_request(2));  // queued behind it
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.stats().admitted, 2u);

  std::thread stopper([&server] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();  // stop() waits for the in-flight batch
  stopper.join();

  EXPECT_EQ(f0.get().status, Status::Ok);
  EXPECT_EQ(f1.get().status, Status::ShuttingDown);
  EXPECT_EQ(server.stats().shed_shutdown, 1u);
}

TEST(ServeServer, MetricsCountOutcomes) {
  namespace m = obs::metrics;
  const auto base_req = m::total(m::Counter::ServeRequests);
  const auto base_rej = m::total(m::Counter::ServeRejected);
  const auto base_dl = m::total(m::Counter::ServeDeadlineMiss);

  GateEngine gate;
  Server server(stub_options(test_socket_path("metrics"), gate));
  server.start();
  Client client(server.endpoint());
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  InvertRequest late = tiny_request();
  late.deadline_us = -1;
  EXPECT_EQ(client.request(std::move(late)).status, Status::DeadlineMiss);
  server.stop();

  EXPECT_EQ(m::total(m::Counter::ServeRequests), base_req + 1);
  EXPECT_EQ(m::total(m::Counter::ServeRejected), base_rej);
  EXPECT_EQ(m::total(m::Counter::ServeDeadlineMiss), base_dl + 1);
  EXPECT_GT(m::hist(m::Hist::ServeLatency).count, 0u);
  EXPECT_GT(m::hist(m::Hist::ServeBatchOccupancy).count, 0u);
}

TEST(ServeServer, LatencyQuantilesCoverOnlyTheMostRecentResponses) {
  // The server keeps the latencies of its most recent 4096 Ok responses.
  constexpr int kWindow = 4096;
  constexpr double kSlowS = 0.3;
  GateEngine gate;
  Server server(stub_options(test_socket_path("latency_ring"), gate));
  server.start();
  Client client(server.endpoint());

  // One slow response: the engine holds its batch for kSlowS.
  gate.hold();
  auto slow = client.submit(tiny_request(1));
  ASSERT_TRUE(gate.wait_started(1));
  std::this_thread::sleep_for(std::chrono::duration<double>(kSlowS));
  gate.release();
  ASSERT_EQ(slow.get().status, Status::Ok);
  EXPECT_GE(server.latency_quantile(1.0), kSlowS);

  // kWindow - 1 fast responses leave it in the window; one more evicts it.
  for (int i = 2; i <= kWindow; ++i)
    ASSERT_EQ(client.request(tiny_request(i)).status, Status::Ok);
  EXPECT_GE(server.latency_quantile(1.0), kSlowS);
  ASSERT_EQ(client.request(tiny_request(kWindow + 1)).status, Status::Ok);
  EXPECT_LT(server.latency_quantile(1.0), kSlowS);

  server.stop();
  EXPECT_EQ(server.stats().served_ok, static_cast<std::uint64_t>(kWindow + 1));
}

// ---------------------------------------------------------------------------
// Schema v2: trace propagation, timing breakdown, stats endpoint

TEST(ServeServer, ResponseEchoesTraceIdAndBreakdown) {
  GateEngine gate;
  ServerOptions o = stub_options(test_socket_path("trace_echo"), gate);
  o.max_batch = 4;
  Server server(std::move(o));
  server.start();
  Client client(server.endpoint());

  InvertRequest req = tiny_request();
  req.trace_id = 0xABCDEF;
  const InvertResponse r = client.request(std::move(req));
  ASSERT_EQ(r.status, Status::Ok);
  EXPECT_EQ(r.trace_id, 0xABCDEFu);
  // The ns breakdown is filled server-side and consistent with the legacy
  // microsecond fields: queue+batch covers arrival -> engine start.
  EXPECT_GT(r.exec_ns, 0u);
  EXPECT_GE((r.queue_wait_ns + r.batch_wait_ns) / 1000, r.queue_wait_us);
  EXPECT_DOUBLE_EQ(r.batch_occupancy, 0.25);  // 1 request / max_batch 4
  server.stop();
}

TEST(ServeServer, V1ClientGetsV1AnswerFromV2Server) {
  // Impersonate a v1 client on a raw socket: the request is encoded with
  // version 1 and the server must answer in the same dialect so the old
  // decoder keeps working bit-for-bit.
  GateEngine gate;
  Server server(stub_options(test_socket_path("v1_compat"), gate));
  server.start();

  Socket raw = connect_to(server.endpoint());
  InvertRequest req = tiny_request(21);
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(req, /*version=*/1));
  ASSERT_TRUE(raw.send_all(frame.data(), frame.size()));

  FrameParser parser;
  std::vector<std::uint8_t> resp_payload;
  std::uint8_t buf[4096];
  while (!parser.next(resp_payload)) {
    const long got = raw.recv_some(buf, sizeof buf);
    ASSERT_GT(got, 0);
    parser.feed(buf, static_cast<std::size_t>(got));
  }
  const Decoded d = decode_payload(resp_payload.data(), resp_payload.size());
  ASSERT_EQ(d.type, MsgType::InvertResponse);
  EXPECT_EQ(d.schema, 1u);  // answered in the client's dialect
  EXPECT_EQ(d.response.id, 21u);
  EXPECT_EQ(d.response.status, Status::Ok);
  EXPECT_GT(d.response.execute_us + d.response.batch_size, 0u);  // v1 fields
  EXPECT_EQ(d.response.exec_ns, 0u);  // no v2 extension on the wire
  raw.close();
  server.stop();
}

TEST(ServeServer, StatsEndpointReturnsLiveSnapshot) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("stats"), gate));
  server.start();
  Client client(server.endpoint());

  ASSERT_EQ(client.request(tiny_request()).status, Status::Ok);
  const StatsResponse s = client.stats();
  EXPECT_EQ(s.stats_version, kStatsVersion);
  EXPECT_GT(s.uptime_ns, 0u);
  EXPECT_EQ(s.connections, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.served_ok, 1u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_requests, 1u);
  EXPECT_EQ(s.models_built, 1u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.queue_capacity, 2u);  // stub_options queue_depth
  // The request just served is inside the 10 s rolling window.
  EXPECT_GE(s.latency_s.count, 1u);
  EXPECT_GE(s.occupancy.count, 1u);
  EXPECT_GT(s.latency_s.p50, 0.0);
  EXPECT_LE(s.latency_s.p50, s.latency_s.p99);
  // Stats v2: the daemon identifies its own build over the wire.
  EXPECT_EQ(s.build_version, obs::build_info().version);
  EXPECT_EQ(s.build_git_sha, obs::build_info().git_sha);
  EXPECT_EQ(s.build_type, obs::build_info().build_type);
  EXPECT_FALSE(s.build_compiler.empty());

  // The in-process snapshot is served by the same path.
  const StatsResponse local = server.stats_snapshot();
  EXPECT_EQ(local.served_ok, 1u);
  server.stop();
}

TEST(ServeServer, AccessLogWritesOneJsonLinePerResponse) {
  const std::string log_path = "/tmp/fsi_serve_test_log_" +
                               std::to_string(::getpid()) + ".jsonl";
  std::remove(log_path.c_str());
  GateEngine gate;
  ServerOptions o = stub_options(test_socket_path("access_log"), gate);
  o.access_log = log_path;
  Server server(std::move(o));
  server.start();
  Client client(server.endpoint());

  InvertRequest ok_req = tiny_request(1);
  ok_req.trace_id = 0x77;
  EXPECT_EQ(client.request(std::move(ok_req)).status, Status::Ok);
  InvertRequest late = tiny_request(2);
  late.deadline_us = -1;
  EXPECT_EQ(client.request(std::move(late)).status, Status::DeadlineMiss);
  server.stop();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"trace_id\":119"), std::string::npos);  // 0x77
  EXPECT_NE(lines[0].find("\"exec_ns\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"deadline-miss\""), std::string::npos);
  std::remove(log_path.c_str());
}

TEST(ServeClient, StitchedTraceSpansOnClientTimeline) {
  // With tracing enabled the client auto-assigns trace ids, records the
  // request RTT, and synthesizes the server-side breakdown onto its own
  // timeline — one artifact shows the whole journey.
  obs::clear();
  obs::set_enabled(true);
  {
    GateEngine gate;
    Server server(stub_options(test_socket_path("stitch"), gate));
    server.start();
    Client client(server.endpoint());
    const InvertResponse r = client.request(tiny_request());
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_NE(r.trace_id, 0u);  // auto-assigned because tracing is on
    server.stop();
  }
  bool saw_rtt = false, saw_exec = false;
  for (const auto& s : obs::summary()) {
    if (s.name == "serve.client.rtt") saw_rtt = true;
    if (s.name == "serve.server.exec") saw_exec = true;
  }
  EXPECT_TRUE(saw_rtt);
  EXPECT_TRUE(saw_exec);
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("trace_id"), std::string::npos);
  obs::set_enabled(false);
  obs::clear();
}

// ---------------------------------------------------------------------------
// OpenMetrics HTTP scrape endpoint

/// One raw HTTP/1.1 request against the exporter; returns everything the
/// server sent before Connection: close.
std::string http_get(const Endpoint& ep, const std::string& request) {
  Socket sock = connect_to(ep);
  EXPECT_TRUE(sock.send_all(request.data(), request.size()));
  std::string out;
  char buf[4096];
  long got;
  while ((got = sock.recv_some(buf, sizeof buf)) > 0)
    out.append(buf, static_cast<std::size_t>(got));
  return out;
}

std::string http_body(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

TEST(ServeMetricsHttp, LiveScrapePassesTheGrammarChecker) {
  obs::metrics::add(obs::metrics::Counter::ServeRequests, 3);
  MetricsExporter exporter(Endpoint::parse("tcp:127.0.0.1:0"));
  exporter.start();

  const std::string resp =
      http_get(exporter.endpoint(),
               "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
  exporter.stop();

  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);

  fsi::obs::OpenMetricsChecker checker;
  EXPECT_TRUE(checker.check(http_body(resp))) << checker.error();
  EXPECT_GE(checker.value_of("fsi_serve_requests_total"), 3.0);
  EXPECT_EQ(exporter.requests_served(), 1u);
}

TEST(ServeMetricsHttp, HealthzAndErrorPaths) {
  MetricsExporter exporter(Endpoint::parse("tcp:127.0.0.1:0"));
  exporter.start();
  const Endpoint ep = exporter.endpoint();

  EXPECT_NE(http_get(ep, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("HTTP/1.1 200 OK"),
            std::string::npos);
  EXPECT_NE(http_get(ep, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_get(ep, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(http_get(ep, "garbage\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  exporter.stop();
}

TEST(ServeMetricsHttp, SurvivesAbruptDisconnectAndServesNextClient) {
  MetricsExporter exporter(Endpoint::parse("tcp:127.0.0.1:0"));
  exporter.start();
  {
    // Client connects and leaves without sending a full request: the
    // exporter's read timeout must reclaim the serving thread.
    Socket rude = connect_to(exporter.endpoint());
    rude.send_all("GET /metr", 9);
    rude.close();
  }
  const std::string resp = http_get(
      exporter.endpoint(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  exporter.stop();
}

TEST(ServeMetricsHttp, StopUnblocksAndStartupFailureThrows) {
  MetricsExporter exporter(Endpoint::parse("tcp:127.0.0.1:0"));
  exporter.start();
  const int port = exporter.endpoint().port;
  ASSERT_GT(port, 0);
  // A second exporter on the same resolved port cannot bind.
  MetricsExporter clash(
      Endpoint::parse("tcp:127.0.0.1:" + std::to_string(port)));
  EXPECT_THROW(clash.start(), util::CheckError);
  exporter.stop();   // returns promptly with no client connected
  exporter.stop();   // idempotent
}

}  // namespace

// End-to-end tests of the fsi::serve daemon with the real inversion engine:
// results that travelled client -> socket -> admission queue -> coalesced
// batch -> qmc::run_fsi_batch -> socket -> client must be bit-identical to
// an in-process run of the same fields — the serve path may move work
// across processes, but never changes a single bit of the physics.
//
// These tests run the OpenMP-backed engine, so they are excluded from the
// ThreadSanitizer CI job (which runs test_serve_protocol instead).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "fsi/qmc/multi_gf.hpp"
#include "fsi/serve/client.hpp"
#include "fsi/serve/server.hpp"
#include "fsi/util/check.hpp"

namespace {

using namespace fsi;
using namespace fsi::serve;

std::string test_socket_path(const char* tag) {
  return "unix:/tmp/fsi_serve_e2e_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

InvertRequest make_request(std::uint64_t seed, std::uint32_t lx = 4,
                           std::uint32_t l = 8, bool heavy = true) {
  InvertRequest r;
  r.lx = lx;
  r.ly = 1;
  r.l = l;
  r.c = 0;  // default divisor of L near sqrt(L)
  r.q = -1; // derived from the seed — same rule as the reference below
  r.seed = seed;
  r.time_dependent = heavy;
  r.field = random_field(r.lx, r.ly, r.l, seed);
  return r;
}

/// The in-process ground truth: the same field, wrap offset and cluster
/// size through the same batch engine, as a batch of one.  Per-task results
/// are independent of batch composition (each task owns its sub-graph and
/// accumulates serially), so this is the exact reference even for responses
/// that were served from a coalesced multi-request batch.
std::vector<double> reference(const InvertRequest& req) {
  const qmc::Lattice lat =
      req.ly == 1 ? qmc::Lattice::chain(static_cast<qmc::index_t>(req.lx))
                  : qmc::Lattice::rectangle(static_cast<qmc::index_t>(req.lx),
                                            static_cast<qmc::index_t>(req.ly));
  qmc::HubbardParams params;
  params.t = req.t;
  params.u = req.u;
  params.beta = req.beta;
  params.l = static_cast<qmc::index_t>(req.l);
  const qmc::HubbardModel model(lat, params);

  const qmc::index_t c = effective_cluster(req);
  std::vector<qmc::FsiBatchTask> tasks;
  tasks.push_back(qmc::FsiBatchTask{
      qmc::HsField::deserialize(static_cast<qmc::index_t>(req.l),
                                model.num_sites(), req.field.data(),
                                req.field.size()),
      resolve_q(req, c), req.time_dependent});
  qmc::FsiBatchOptions opts;
  opts.cluster_size = c;
  return qmc::run_fsi_batch(model, tasks, opts).front().serialize();
}

void expect_bit_identical(const InvertRequest& req,
                          const InvertResponse& resp) {
  ASSERT_EQ(resp.status, Status::Ok) << resp.message;
  const std::vector<double> expected = reference(req);
  ASSERT_EQ(resp.measurements.size(), expected.size());
  EXPECT_EQ(std::memcmp(resp.measurements.data(), expected.data(),
                        expected.size() * sizeof(double)),
            0)
      << "serve-path measurements are not bit-identical to the in-process "
         "selected inversion";
}

/// The real engine behind a gate: the first batch waits until \p expected
/// requests have been admitted, so everything after it is queued by the
/// time the batcher looks again.  That makes coalescing deterministic
/// without a straggler window.  Later batches run straight through.
struct HoldFirstBatch {
  std::uint64_t expected = 0;
  const Server* server = nullptr;  ///< set after construction, before start
  std::atomic<bool> first{true};

  Engine engine() {
    return [this](const qmc::HubbardModel& model,
                  const std::vector<qmc::FsiBatchTask>& tasks,
                  const qmc::FsiBatchOptions& opts) {
      if (first.exchange(false)) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (server->stats().admitted < expected &&
               std::chrono::steady_clock::now() < give_up)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return qmc::run_fsi_batch(model, tasks, opts);
    };
  }
};

TEST(ServeE2E, SingleRequestBitIdentical) {
  ServerOptions options;
  options.endpoint = Endpoint::parse(test_socket_path("single"));
  Server server(std::move(options));
  server.start();

  Client client(server.endpoint());
  const InvertRequest req = make_request(11);
  InvertRequest sent = req;
  const InvertResponse resp = client.request(std::move(sent));
  expect_bit_identical(req, resp);
  EXPECT_EQ(resp.l, req.l);
  EXPECT_GT(resp.dmax, 0u);
  server.stop();
}

TEST(ServeE2E, CoalescedPipelinedRequestsBitIdentical) {
  HoldFirstBatch hold;
  hold.expected = 4;
  ServerOptions options;
  options.endpoint = Endpoint::parse(test_socket_path("coalesce"));
  options.max_batch = 8;
  options.engine = hold.engine();
  Server server(std::move(options));
  hold.server = &server;
  server.start();

  Client client(server.endpoint());
  std::vector<InvertRequest> requests;
  std::vector<std::future<InvertResponse>> futures;
  for (std::uint64_t s = 0; s < 4; ++s) {
    requests.push_back(make_request(100 + s));
    futures.push_back(client.submit(requests.back()));
  }
  std::uint32_t max_batch_size = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InvertResponse resp = futures[i].get();
    expect_bit_identical(requests[i], resp);
    max_batch_size = std::max(max_batch_size, resp.batch_size);
  }
  server.stop();
  // The burst queued behind the held first batch shares the next one —
  // the whole point of the batching layer.
  EXPECT_GE(max_batch_size, 2u);
  EXPECT_LE(server.stats().batches, 2u);
}

TEST(ServeE2E, ConcurrentClientsCoalesceAndStayBitIdentical) {
  constexpr int kClients = 3;
  HoldFirstBatch hold;
  hold.expected = kClients;
  ServerOptions options;
  options.endpoint = Endpoint::parse(test_socket_path("multi"));
  options.max_batch = 8;
  options.engine = hold.engine();
  Server server(std::move(options));
  hold.server = &server;
  server.start();
  const Endpoint ep = server.endpoint();

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(ep);
        const InvertRequest req =
            make_request(static_cast<std::uint64_t>(200 + c));
        InvertRequest sent = req;
        const InvertResponse resp = client.request(std::move(sent));
        if (resp.status != Status::Ok) {
          failures[static_cast<std::size_t>(c)] =
              "status " + std::string(status_name(resp.status));
          return;
        }
        const std::vector<double> expected = reference(req);
        if (expected.size() != resp.measurements.size() ||
            std::memcmp(expected.data(), resp.measurements.data(),
                        expected.size() * sizeof(double)) != 0) {
          failures[static_cast<std::size_t>(c)] = "not bit-identical";
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;
  server.stop();
  EXPECT_EQ(server.stats().served_ok, static_cast<std::uint64_t>(kClients));
  // The clients queued behind the held first batch coalesced.
  EXPECT_LE(server.stats().batches, 2u);
}

TEST(ServeE2E, MixedShapesSplitIntoSeparateBatches) {
  HoldFirstBatch hold;
  hold.expected = 2;
  ServerOptions options;
  options.endpoint = Endpoint::parse(test_socket_path("mixed"));
  options.engine = hold.engine();
  Server server(std::move(options));
  hold.server = &server;
  server.start();

  Client client(server.endpoint());
  const InvertRequest small = make_request(31, /*lx=*/4, /*l=*/8);
  const InvertRequest large = make_request(32, /*lx=*/6, /*l=*/12);
  auto f_small = client.submit(small);
  auto f_large = client.submit(large);
  const InvertResponse r_small = f_small.get();
  const InvertResponse r_large = f_large.get();
  expect_bit_identical(small, r_small);
  expect_bit_identical(large, r_large);
  // Both were queued together, yet different (N, L) never share a batch.
  EXPECT_EQ(r_small.batch_size, 1u);
  EXPECT_EQ(r_large.batch_size, 1u);
  server.stop();
  EXPECT_EQ(server.stats().batches, 2u);
}

TEST(ServeE2E, EqualTimeOnlyRequestBitIdentical) {
  ServerOptions options;
  options.endpoint = Endpoint::parse(test_socket_path("equal_time"));
  Server server(std::move(options));
  server.start();

  Client client(server.endpoint());
  const InvertRequest req = make_request(41, 4, 8, /*heavy=*/false);
  InvertRequest sent = req;
  const InvertResponse resp = client.request(std::move(sent));
  expect_bit_identical(req, resp);
  server.stop();
}

TEST(ServeE2E, ExplicitClusterAndOffsetBitIdentical) {
  ServerOptions options;
  options.endpoint = Endpoint::parse(test_socket_path("explicit"));
  Server server(std::move(options));
  server.start();

  Client client(server.endpoint());
  InvertRequest req = make_request(51, 4, 8);
  req.c = 4;
  req.q = 3;
  InvertRequest sent = req;
  const InvertResponse resp = client.request(std::move(sent));
  expect_bit_identical(req, resp);
  EXPECT_EQ(resp.q_used, 3);
  server.stop();
}

TEST(ServeE2E, TwoKeyClientsOnOneTcpDaemonStayBitIdentical) {
  // Two concurrent clients with different BatchKeys on one tcp: daemon:
  // each key batches on its own, and both streams stay bit-identical.
  ServerOptions options;
  options.endpoint = Endpoint::parse("tcp:127.0.0.1:0");
  Server server(std::move(options));
  server.start();
  const Endpoint ep = server.endpoint();

  const std::vector<InvertRequest> streams = {
      make_request(71, /*lx=*/4, /*l=*/8),
      make_request(72, /*lx=*/6, /*l=*/12)};
  std::vector<std::string> failures(streams.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(ep);
        for (int i = 0; i < 3; ++i) {
          InvertRequest sent = streams[c];
          const InvertResponse resp = client.request(std::move(sent));
          const std::vector<double> expected = reference(streams[c]);
          if (resp.status != Status::Ok ||
              resp.measurements.size() != expected.size() ||
              std::memcmp(expected.data(), resp.measurements.data(),
                          expected.size() * sizeof(double)) != 0)
            failures[c] = "response " + std::to_string(i) + " not Ok/identical";
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < streams.size(); ++c)
    EXPECT_EQ(failures[c], "") << "stream " << c;
  server.stop();
  EXPECT_EQ(server.stats().served_ok, 6u);
  EXPECT_EQ(server.stats().connections, 2u);
}

TEST(ServeE2E, ClosedLoopClientNeverWaitsAndStatsReportFixedBatching) {
  // Closed-loop single client: every request waits for its response, so
  // no straggler can ever arrive.  Each request dispatches alone, and the
  // stats-v3 batching fields carry the fixed values of the one rule.
  ServerOptions options;
  options.endpoint = Endpoint::parse(test_socket_path("closed_loop"));
  options.max_batch = 8;
  Server server(std::move(options));
  server.start();

  Client client(server.endpoint());
  const InvertRequest req = make_request(81);
  for (int i = 0; i < 8; ++i) {
    InvertRequest sent = req;
    const InvertResponse resp = client.request(std::move(sent));
    expect_bit_identical(req, resp);
    EXPECT_EQ(resp.batch_size, 1u);
  }
  const StatsResponse s = server.stats_snapshot();
  EXPECT_EQ(s.batches, 8u);
  EXPECT_EQ(s.replicas, 1u);
  EXPECT_FALSE(s.adaptive_enabled);
  EXPECT_EQ(s.policy_window_us, 0);
  EXPECT_EQ(s.policy_max_batch, 8u);
  EXPECT_FALSE(s.policy_bypass);
  EXPECT_EQ(s.bypass_enters, 0u);
  EXPECT_EQ(s.bypass_exits, 0u);
  EXPECT_TRUE(s.policy_rows.empty());
  server.stop();
}

TEST(ServeE2E, ClientQuotaShedsPipelinedFlood) {
  // A stub-free flood through the real engine would be slow; instead use a
  // tiny quota so a pipelined burst trips it deterministically even when
  // the batcher drains fast: quota 1, burst of 8 from one connection.
  ServerOptions options;
  options.endpoint = Endpoint::parse(test_socket_path("quota"));
  options.client_quota = 1;
  Server server(std::move(options));
  server.start();

  Client client(server.endpoint());
  std::vector<InvertRequest> requests;
  std::vector<std::future<InvertResponse>> futures;
  for (std::uint64_t i = 0; i < 8; ++i) {
    requests.push_back(make_request(90 + i));
    futures.push_back(client.submit(requests.back()));
  }
  std::uint64_t ok = 0, shed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InvertResponse r = futures[i].get();
    if (r.status == Status::Ok) {
      expect_bit_identical(requests[i], r);
      ++ok;
    } else {
      ASSERT_EQ(r.status, Status::RetryAfter) << r.message;
      EXPECT_NE(r.message.find("quota"), std::string::npos);
      ++shed;
    }
  }
  server.stop();
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(ok + shed, 8u);
  EXPECT_EQ(server.stats().rejected_quota, shed);
}

TEST(ServeE2E, TcpEndpointRoundTrip) {
  ServerOptions options;
  options.endpoint = Endpoint::parse("tcp:127.0.0.1:0");  // ephemeral port
  Server server(std::move(options));
  server.start();
  ASSERT_GT(server.endpoint().port, 0);

  Client client(server.endpoint());
  const InvertRequest req = make_request(61);
  InvertRequest sent = req;
  expect_bit_identical(req, client.request(std::move(sent)));
  server.stop();
}

}  // namespace

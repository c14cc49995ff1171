/// \file fsi_serve.cpp
/// \brief The inversion daemon: bind a socket, serve batched selected
/// inversions until SIGINT/SIGTERM, then print statistics and write the
/// telemetry artifacts.
///
/// Usage:
///   fsi_serve --socket unix:/tmp/fsi.sock [--queue 64] [--max-batch 8]
///             [--retry-after-ms 50] [--deadline-ms 0] [--workers 0]
///             [--trace] [--log access.jsonl]
///             [--metrics tcp:127.0.0.1:9464] [--quota 0] [--version]
///
/// Every flag has an FSI_SERVE_* environment equivalent (the flag wins);
/// see docs/serving.md and the env-var table in docs/parallelism.md.
/// --metrics (FSI_SERVE_METRICS) opens an HTTP scrape endpoint answering
/// GET /metrics in OpenMetrics format and GET /healthz.  --quota caps the
/// queue slots one connection may hold; see docs/tuning.md.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "fsi/obs/build.hpp"
#include "fsi/obs/flight.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/telemetry.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/serve/metrics_http.hpp"
#include "fsi/serve/server.hpp"
#include "fsi/util/cli.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace fsi;
  const util::Cli cli(argc, argv);
  if (cli.has("version")) {
    std::fputs(obs::version_line("fsi_serve").c_str(), stdout);
    return 0;
  }
  obs::flight::install_crash_handlers();

  serve::ServerOptions options = serve::ServerOptions::from_env();
  const std::string socket_spec =
      cli.get_string("socket", options.endpoint.describe());
  options.endpoint = serve::Endpoint::parse(socket_spec);
  options.queue_depth = static_cast<std::size_t>(
      cli.get_int("queue", static_cast<int>(options.queue_depth)));
  options.max_batch = static_cast<std::size_t>(
      cli.get_int("max-batch", static_cast<int>(options.max_batch)));
  options.retry_after_ms = static_cast<std::uint32_t>(
      cli.get_int("retry-after-ms", static_cast<int>(options.retry_after_ms)));
  options.default_deadline_ms = cli.get_int(
      "deadline-ms", static_cast<int>(options.default_deadline_ms));
  options.batch.num_workers =
      cli.get_int("workers", options.batch.num_workers);
  options.access_log = cli.get_string("log", options.access_log);
  options.metrics_endpoint =
      cli.get_string("metrics", options.metrics_endpoint);
  options.client_quota = static_cast<std::size_t>(
      cli.get_int("quota", static_cast<int>(options.client_quota)));
  if (cli.has("trace")) obs::set_enabled(true);

  const std::size_t queue_depth = options.queue_depth;
  const std::size_t max_batch = options.max_batch;
  const std::string metrics_spec = options.metrics_endpoint;

  serve::Server server(std::move(options));
  try {
    server.start();
  } catch (const std::exception& e) {
    FSI_LOG_ERROR("serve.fatal", {"reason", e.what()});
    return 1;
  }

  std::unique_ptr<serve::MetricsExporter> metrics_http;
  if (!metrics_spec.empty()) {
    try {
      metrics_http = std::make_unique<serve::MetricsExporter>(
          serve::Endpoint::parse(metrics_spec));
      metrics_http->start();
      std::printf("fsi_serve: metrics on http://%s/metrics\n",
                  metrics_http->endpoint().describe().c_str());
    } catch (const std::exception& e) {
      FSI_LOG_ERROR("serve.fatal",
                    {"reason", std::string("metrics endpoint: ") + e.what()});
      return 1;
    }
  }
  std::printf("fsi_serve: listening on %s (queue %zu, max batch %zu)\n",
              server.endpoint().describe().c_str(), queue_depth, max_batch);
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop_requested == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  if (metrics_http != nullptr) metrics_http->stop();
  server.stop();

  const serve::ServerStats stats = server.stats();
  std::printf(
      "fsi_serve: %llu connections, %llu admitted, %llu ok, %llu retry-after "
      "(%llu over-quota), %llu deadline-miss, %llu cancelled, %llu malformed, "
      "%llu errors\n",
      static_cast<unsigned long long>(stats.connections),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.served_ok),
      static_cast<unsigned long long>(stats.rejected_full),
      static_cast<unsigned long long>(stats.rejected_quota),
      static_cast<unsigned long long>(stats.deadline_miss),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.malformed),
      static_cast<unsigned long long>(stats.errors));
  std::printf("fsi_serve: %llu batches, mean occupancy %.2f, queue high water "
              "%zu, latency p50/p95/p99 = %.3f/%.3f/%.3f ms\n",
              static_cast<unsigned long long>(stats.batches),
              stats.batch_occupancy_mean(), stats.queue_high_water,
              server.latency_quantile(0.50) * 1e3,
              server.latency_quantile(0.95) * 1e3,
              server.latency_quantile(0.99) * 1e3);

  // Telemetry artifact: the serve histograms (latency, queue wait, batch
  // occupancy) land in the "hists" section; the explicit percentiles are
  // exported as metrics.  Both under obs::artifact_dir().
  obs::BenchTelemetry telemetry("fsi_serve");
  telemetry.add_info("endpoint", server.endpoint().describe());
  telemetry.add_metric("served_ok", static_cast<double>(stats.served_ok),
                       "requests");
  telemetry.add_metric("rejected_full",
                       static_cast<double>(stats.rejected_full), "requests",
                       false, false);
  telemetry.add_metric("deadline_miss",
                       static_cast<double>(stats.deadline_miss), "requests",
                       false, false);
  telemetry.add_metric("latency_p50_ms", server.latency_quantile(0.50) * 1e3,
                       "ms", false, false);
  telemetry.add_metric("latency_p95_ms", server.latency_quantile(0.95) * 1e3,
                       "ms", false, false);
  telemetry.add_metric("latency_p99_ms", server.latency_quantile(0.99) * 1e3,
                       "ms", false, false);
  telemetry.add_metric("batch_occupancy_mean", stats.batch_occupancy_mean(),
                       "requests");
  const std::string telemetry_path = telemetry.write();
  if (!telemetry_path.empty())
    std::printf("fsi_serve: telemetry written to %s\n", telemetry_path.c_str());
  const std::string trace_path = obs::write_trace_if_enabled("fsi_serve");
  if (!trace_path.empty())
    std::printf("fsi_serve: trace written to %s\n", trace_path.c_str());
  return 0;
}

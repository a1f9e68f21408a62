// Quickstart for the TCP serving layer (cgra/net.hpp).
//
// Stands up a cgra::net::Server over a cgra::service::Service on an
// ephemeral loopback port, then talks to it through cgra::net::Client:
// ping, a JPEG block, an FFT, a DSE sweep, pipelined requests, and a
// stats frame — verifying the block reply is bit-identical to calling
// the service directly in-process.
//
// With --trace[=path] every call carries a protocol-v3 trace context:
// the client opens spans around its round-trips, the server/service
// stack records connection, queue-wait, epoch-fusion and fabric spans
// tagged with the same trace id, and at the end the demo pulls the
// server's live dump over the wire (kTraceDump), merges it with the
// client timeline and writes ONE Chrome/Perfetto-loadable JSON (default
// serve_trace.json — open it at https://ui.perfetto.dev).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/serve_demo --trace
//
// --engine=interp|threaded selects the execution engine the service's
// fabrics run on (replies are bit-identical across engines).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numbers>
#include <string>
#include <vector>

#include "cgra/engine.hpp"
#include "cgra/net.hpp"

int main(int argc, char** argv) {
  using namespace cgra;

  engine::apply_engine_flag(&argc, argv);
  bool trace = false;
  std::string trace_path = "serve_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace = true;
      trace_path = argv[i] + 8;
    } else {
      std::printf("usage: %s [--trace[=path]] [--engine=NAME]\n", argv[0]);
      return 1;
    }
  }

  // One tracer shared by the server AND its service, so a request's
  // connection/queue/fusion/fabric spans land in one timeline; the
  // client records its own side and merges the server dump at the end.
  obs::Tracer server_tracer;
  obs::Tracer client_tracer;

  // --- server: a 2-worker service behind a loopback TCP front-end ---
  service::ServiceOptions sopt;
  sopt.workers = 2;
  sopt.queue_capacity = 64;
  if (trace) sopt.tracer = &server_tracer;
  service::Service svc(sopt);
  net::ServerOptions nopt;
  if (trace) nopt.tracer = &server_tracer;
  net::Server server(&svc, nopt);
  if (const auto s = server.start(); !s.ok()) {
    std::printf("server start failed: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u%s\n", server.port(),
              trace ? " (tracing)" : "");

  net::ClientOptions copt;
  copt.port = server.port();
  if (trace) copt.tracer = &client_tracer;
  net::Client client(copt);

  if (const auto s = client.ping(); !s.ok()) {
    std::printf("ping failed: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("ping: ok\n");

  // --- a JPEG block over the wire, checked against in-process ---
  service::JpegBlockRequest block;
  for (int i = 0; i < 64; ++i) {
    block.raw[static_cast<std::size_t>(i)] = (i * 29 + 31) % 256;
  }
  block.quant = jpeg::scaled_quant(75);
  net::Response resp;
  net::CallOptions deadline_call;
  deadline_call.deadline_ms = 5000;  // exercises the deadline-check events
  if (const auto s =
          client.call(service::JobRequest{block}, &resp, deadline_call);
      !s.ok() || !resp.result.ok()) {
    std::printf("block failed: %s / %s\n", s.message().c_str(),
                resp.result.status.message().c_str());
    return 1;
  }
  const auto& remote =
      std::get<service::JpegBlockJobResult>(resp.result.payload);
  const auto local = svc.wait(svc.submit(service::JobRequest{block}).handle);
  const auto& direct =
      std::get<service::JpegBlockJobResult>(local.payload);
  std::printf("JPEG block: %lld cycles, bit-identical to in-process: %s\n",
              static_cast<long long>(remote.cycles),
              remote.zigzagged == direct.zigzagged ? "yes" : "no");
  if (remote.zigzagged != direct.zigzagged) return 1;

  // --- an FFT over the wire ---
  service::FftRequest fft_req;
  fft_req.n = 64;
  fft_req.m = 8;
  fft_req.input.resize(64);
  for (int i = 0; i < 64; ++i) {
    const double t = 2.0 * std::numbers::pi * i / 64.0;
    fft_req.input[static_cast<std::size_t>(i)] = {std::cos(5 * t) / 64.0,
                                                  0.0};
  }
  if (const auto s = client.call(service::JobRequest{fft_req}, &resp);
      !s.ok() || !resp.result.ok()) {
    std::printf("FFT failed\n");
    return 1;
  }
  const auto& fres = std::get<service::FftJobResult>(resp.result.payload);
  std::printf("FFT: %d epochs, bin 5 magnitude %.3f\n", fres.epochs,
              std::abs(fres.output[5]) * 64.0);

  // --- a DSE sweep: the reply is the Fig. 16/17 summary ---
  service::DseSweepRequest dse;
  dse.net = jpeg::jpeg_split_pipeline();
  dse.max_tiles = 8;
  if (const auto s = client.call(service::JobRequest{dse}, &resp); !s.ok()) {
    std::printf("DSE failed: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("DSE sweep: %zu budget points, best II %.1f ns\n",
              resp.dse_points.size(), resp.dse_points.back().ii_ns);

  // --- pipelining: several blocks in flight on one connection ---
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    service::JpegBlockRequest req = block;
    req.raw[0] = i;
    std::uint64_t id = 0;
    if (const auto s = client.send(service::JobRequest{req}, &id); !s.ok()) {
      std::printf("send failed: %s\n", s.message().c_str());
      return 1;
    }
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    if (const auto s = client.receive(&resp);
        !s.ok() || resp.request_id != id || !resp.result.ok()) {
      std::printf("pipelined reply %llu failed\n",
                  static_cast<unsigned long long>(id));
      return 1;
    }
  }
  std::printf("pipelined 4 blocks on one connection\n");

  // --- stats: the service's counters plus the server's net.* set ---
  std::vector<obs::MetricSample> stats;
  if (const auto s = client.stats(&stats); !s.ok()) {
    std::printf("stats failed: %s\n", s.message().c_str());
    return 1;
  }
  for (const auto& sample : stats) {
    if (sample.name == "service.jobs.completed" ||
        sample.name == "net.requests" || sample.name == "net.bytes.out") {
      std::printf("stat %-24s %.0f\n", sample.name.c_str(), sample.value);
    }
  }
  // Per-request-type latency percentiles (from the server's histograms).
  for (const auto& sample : stats) {
    if (sample.name.rfind("net.latency_ms.", 0) == 0 &&
        (sample.name.size() > 4 &&
         (sample.name.compare(sample.name.size() - 4, 4, ".p50") == 0 ||
          sample.name.compare(sample.name.size() - 4, 4, ".p90") == 0 ||
          sample.name.compare(sample.name.size() - 4, 4, ".p99") == 0))) {
      std::printf("stat %-32s %8.3f ms\n", sample.name.c_str(), sample.value);
    }
  }

  // --- trace export: pull the server dump, merge, write one JSON ---
  if (trace) {
    net::TraceDumpInfo dump;
    if (const auto s = client.trace_dump(&dump); !s.ok()) {
      std::printf("trace dump failed: %s\n", s.message().c_str());
      return 1;
    }
    const std::string server_json(dump.trace_json.begin(),
                                  dump.trace_json.end());
    std::vector<obs::Span> server_spans;
    if (const auto s = obs::parse_chrome_trace(server_json, &server_spans);
        !s.ok()) {
      std::printf("server trace did not parse: %s\n", s.message().c_str());
      return 1;
    }
    client_tracer.merge_spans(server_spans);
    const std::string merged = client_tracer.to_chrome_json("serve_demo");
    std::ofstream out(trace_path, std::ios::binary);
    out << merged;
    if (!out.good()) {
      std::printf("cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf(
        "trace: %zu server spans merged (%u anomalies, %llu flight events) "
        "-> %s\n",
        server_spans.size(), dump.anomalies,
        static_cast<unsigned long long>(dump.events_recorded),
        trace_path.c_str());
  }

  server.stop();
  std::printf("drained and stopped\n");
  return 0;
}

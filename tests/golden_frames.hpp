// One wire frame of every message type, with every field set to a
// non-default value.  Protocol.GoldenFramesAreByteIdentical pins their
// bytes, and the wire fuzzer (test_fuzz.cpp) mutates them as its seed
// corpus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgra/net.hpp"

namespace cgra::net::golden {

inline JobFrameOptions frame_options(std::uint64_t salt) {
  JobFrameOptions o;
  o.deadline_ms = 2500 + static_cast<std::uint32_t>(salt);
  o.idempotency_id = 0x1D0000 + salt;
  o.trace = {0x0102030405060708ULL + salt, 0x1112131415161718ULL + salt};
  return o;
}

inline service::JpegBlockRequest block_request() {
  service::JpegBlockRequest r;
  for (int i = 0; i < 64; ++i) {
    r.raw[static_cast<std::size_t>(i)] = (i * 29 + 5) % 256 - 128;
    r.quant[static_cast<std::size_t>(i)] = 1 + (i * 7) % 99;
  }
  r.rows = 3;
  r.cols = 5;
  r.plan.seed = 0xFEED;
  r.plan.flip_dmem_bit(120, 1, 33, 6).corrupt_icap(2, 3).kill_tile(900, 4);
  r.policy.verify_readback = false;
  r.policy.verify_cost_factor = 0.75;
  r.policy.max_icap_retries = 5;
  r.policy.icap_retry_backoff_ns = 250.5;
  r.policy.icap_backoff_factor = 1.5;
  r.policy.max_retries_per_checkpoint = 6;
  r.policy.scrub_imem = false;
  r.policy.allow_rebalance = false;
  r.policy.max_rebalances = 4;
  r.policy.rebalance_algo = mapping::RebalanceAlgorithm::kOne;
  r.policy.cost_params.icap.bytes_per_sec = 123.0e6;
  r.policy.cost_params.imem_words = 300;
  r.policy.cost_params.dmem_words = 700;
  r.policy.cost_params.allow_pinning = false;
  r.policy.watchdog.margin = 6.5;
  r.policy.watchdog.min_budget_cycles = 8192;
  return r;
}

inline service::JpegImageRequest image_request() {
  service::JpegImageRequest r;
  r.quality = 85;
  r.image.width = 5;
  r.image.height = 3;
  for (int i = 0; i < 15; ++i) {
    r.image.pixels.push_back(static_cast<std::uint8_t>(17 * i + 3));
  }
  return r;
}

inline service::FftRequest fft_request() {
  service::FftRequest r;
  r.n = 8;
  r.m = 4;
  r.cols = 3;
  for (int i = 0; i < 8; ++i) r.input.emplace_back(0.125 * i, -0.5 + i);
  return r;
}

inline service::DseSweepRequest dse_request() {
  service::DseSweepRequest r;
  for (int i = 0; i < 3; ++i) {
    procnet::Process p;
    p.name = "proc" + std::to_string(i);
    p.insts = 40 + i;
    p.data1 = 3 + i;
    p.data2 = 5 + i;
    p.data3 = 7 + i;
    p.runtime_cycles = 1000 + 10 * i;
    p.invocations_per_item = 2 + i;
    p.replicable = i != 1;
    r.net.add_process(p);
  }
  r.net.add_edge(0, 1, 64);
  r.net.add_edge(1, 2, 16);
  r.net.add_edge(0, 2, 8);
  r.max_tiles = 5;
  r.algorithm = mapping::RebalanceAlgorithm::kOpt;
  r.params.icap.bytes_per_sec = 200.0e6;
  r.params.imem_words = 256;
  r.params.dmem_words = 512;
  r.params.allow_pinning = false;
  return r;
}

inline std::vector<std::uint8_t> job_request(std::uint64_t id,
                                             const service::JobRequest& job) {
  std::vector<std::uint8_t> out;
  (void)encode_job_request(id, job, &out, frame_options(id));
  return out;
}

inline std::vector<std::uint8_t> job_result(MsgType type, std::uint64_t id,
                                            service::JobPayload payload) {
  Request req;
  req.type = type;
  req.request_id = id;
  service::JobResult result;
  result.status = Status();
  result.payload = std::move(payload);
  std::vector<std::uint8_t> out;
  (void)encode_job_result(req, result, &out);
  return out;
}

/// Every request and response frame type, requests first.
inline std::vector<std::vector<std::uint8_t>> frames() {
  std::vector<std::vector<std::uint8_t>> f;
  f.push_back(encode_ping(101));
  f.push_back(job_request(102, service::JobRequest{block_request()}));
  f.push_back(job_request(103, service::JobRequest{image_request()}));
  f.push_back(job_request(104, service::JobRequest{fft_request()}));
  f.push_back(job_request(105, service::JobRequest{dse_request()}));
  f.push_back(encode_stats(106));
  f.push_back(encode_cancel(107, 0xCA11));
  f.push_back(encode_trace_dump(108));

  f.push_back(encode_pong(201));
  service::JpegBlockJobResult block;
  for (int i = 0; i < 64; ++i) {
    block.zigzagged[static_cast<std::size_t>(i)] = 31 - i;
  }
  block.cycles = 8168;
  block.reconfig_ns = 412.25;
  block.recovered = true;
  f.push_back(job_result(MsgType::kJpegBlock, 202, block));
  service::JpegImageJobResult image;
  image.jfif = {0xFF, 0xD8, 0xFF, 0xE0, 0x00, 0x10, 0xFF, 0xD9};
  image.fabric_cycles = 123456;
  f.push_back(job_result(MsgType::kJpegImage, 203, image));
  service::FftJobResult fft;
  fft.output = {{1.5, -2.25}, {0.0625, 3.0}, {-7.0, 0.5}};
  fft.timeline.epoch_compute_ns = 9876.5;
  fft.timeline.reconfig_ns = 432.125;
  fft.epochs = 6;
  f.push_back(job_result(MsgType::kFft, 204, fft));
  service::DseSweepJobResult dse;
  for (int i = 1; i <= 2; ++i) {
    mapping::SweepPoint pt;
    pt.tiles = i;
    pt.eval.ii_ns = 1000.0 / i;
    pt.eval.items_per_sec = 1e6 * i;
    pt.eval.avg_utilization = 0.3 * i;
    pt.eval.needs_reconfig = i == 1;
    dse.points.push_back(pt);
  }
  f.push_back(job_result(MsgType::kDseSweep, 205, dse));
  f.push_back(encode_stats_result(
      206, {{"net.requests", true, 42.0}, {"service.queue.depth", false, 2.5}}));
  f.push_back(encode_cancel_result(207, 0xCA11, true));
  f.push_back(encode_error(208, "queue full, retry later",
                           StatusCode::kUnavailable));
  TraceDumpInfo dump;
  dump.anomalies = 2;
  dump.spans = 9;
  dump.events_recorded = 1234;
  dump.events_dropped = 56;
  const std::string json = "{\"traceEvents\":[{\"name\":\"x\"}]}";
  dump.trace_json.assign(json.begin(), json.end());
  f.push_back(encode_trace_dump_result(209, dump));
  return f;
}

}  // namespace cgra::net::golden

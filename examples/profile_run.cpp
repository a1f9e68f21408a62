// profile_run — the observability driver (docs/OBSERVABILITY.md).
//
// Runs a workload with the full instrumentation stack attached — metrics
// registry on the fabric hot loop, span timeline on the reconfiguration
// controller, profile built from the executed run — and emits the reports
// in any of the supported formats.
//
//   ./build/examples/profile_run fft  [N] [M] [cols]   (defaults: 64 8 2)
//   ./build/examples/profile_run jpeg [quality]        (default: 75)
//
// options:
//   --json             dump the profile and metrics as JSON
//   --csv              dump the profile as CSV rows
//   --trace-json FILE  write the span timeline as Chrome trace-event JSON
//   --engine=NAME      execution engine: interp | threaded
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numbers>
#include <string>
#include <vector>

#include "cgra/apps.hpp"
#include "cgra/engine.hpp"

namespace {

using namespace cgra;

void name_tracks(obs::SpanTimeline& spans, int tiles) {
  spans.set_track_name(obs::kTrackEpochs, "epochs");
  spans.set_track_name(obs::kTrackIcap, "icap");
  spans.set_track_name(obs::kTrackLinks, "links");
  for (int t = 0; t < tiles; ++t) {
    spans.set_track_name(obs::tile_track(t), "tile " + std::to_string(t));
  }
}

int emit(const obs::ProfileReport& prof, const obs::MetricsRegistry& metrics,
         const obs::SpanTimeline& spans, bool json, bool csv,
         const std::string& trace_path, const char* process_name) {
  std::printf("%s", prof.render().c_str());
  const Status rec = prof.reconcile();
  std::printf("reconciliation: %s\n", rec.message().c_str());
  std::printf("\n%s", metrics.to_table().c_str());

  if (json) {
    std::printf("\n--- profile JSON ---\n%s\n", prof.to_json().c_str());
    std::printf("--- metrics JSON ---\n%s\n", metrics.to_json().c_str());
  }
  if (csv) {
    std::printf("\n--- profile CSV ---\n%s", prof.to_csv().c_str());
  }
  if (!trace_path.empty()) {
    const std::string trace = spans.to_chrome_json(process_name);
    const Status valid = obs::validate_chrome_trace(trace);
    if (!valid.ok()) {
      std::printf("trace validation failed: %s\n", valid.message().c_str());
      return 1;
    }
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::printf("cannot write %s\n", trace_path.c_str());
      return 1;
    }
    out << trace;
    std::printf("\nwrote %zu spans to %s — open in Perfetto\n",
                spans.spans().size(), trace_path.c_str());
  }
  return rec.ok() ? 0 : 1;
}

int run_fft(const std::vector<int>& pos, bool json, bool csv,
            const std::string& trace_path) {
  const int n = pos.size() > 0 ? pos[0] : 64;
  const int m = pos.size() > 1 ? pos[1] : 8;
  const int cols = pos.size() > 2 ? pos[2] : 2;

  fft::FftGeometry g;
  try {
    g = fft::make_geometry(n, m);
  } catch (const std::exception& e) {
    std::printf("bad geometry: %s\n", e.what());
    return 1;
  }
  if (cols < 1 || g.stages % cols != 0) {
    std::printf("cols must divide log2(N) = %d (got %d)\n", g.stages, cols);
    return 1;
  }

  std::vector<fft::Cplx> x(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double t = 2.0 * std::numbers::pi * j / n;
    x[static_cast<std::size_t>(j)] = {std::cos(5 * t), 0.0};
  }

  obs::SpanTimeline spans;
  obs::MetricsRegistry metrics;
  name_tracks(spans, g.rows * cols);

  fft::FabricFftOptions opt;
  opt.cols = cols;
  opt.spans = &spans;
  opt.metrics = &metrics;
  opt.collect_profile = true;
  const auto result = fft::run_fabric_fft(g, x, opt);
  if (!result.ok()) {
    std::printf("fabric FFT failed (%zu faults)\n", result.faults.size());
    return 1;
  }
  std::printf("profiled %d-point FFT on %d tiles (%d epochs)\n\n", g.n,
              g.rows * cols, result.epochs);

  const int rc = emit(result.profile, metrics, spans, json, csv, trace_path,
                      "profile_run:fft");
  if (rc != 0) return rc;

  dse::Sweep sweep;
  const auto times = sweep.measure_process_times(g);
  const auto model =
      dse::evaluate_fft_design(g, times, cols, opt.link_cost_ns);
  std::printf("\n%s",
              dse::build_fft_drift(model, result.timeline).render().c_str());
  return 0;
}

int run_jpeg(const std::vector<int>& pos, bool json, bool csv,
             const std::string& trace_path) {
  const int quality = pos.size() > 0 ? pos[0] : 75;
  const auto quant = jpeg::scaled_quant(quality);
  const auto net = jpeg::jpeg_transform_pipeline();
  const auto lib = jpeg::jpeg_program_library(quant);
  mapping::Binding binding;
  binding.groups = {{{0}, 1}, {{1}, 1}, {{2}, 1}, {{3}, 1}};
  const auto placement =
      mapping::place(binding, 1, 4, mapping::PlacementStrategy::kSnake);
  const auto sched =
      mapping::compile_item_schedule(net, binding, placement, lib);
  if (!sched.ok()) {
    std::printf("schedule compilation failed: %s\n",
                sched.status.message().c_str());
    return 1;
  }

  obs::SpanTimeline spans;
  obs::MetricsRegistry metrics;
  name_tracks(spans, 4);

  fabric::Fabric fab(1, 4);
  config::ReconfigController ctrl(IcapModel{},
                                  interconnect::LinkCostModel{50.0});
  ctrl.attach_timeline(&spans);
  fab.attach_metrics(&metrics);

  const auto img = jpeg::synthetic_image(32, 24, 2026);
  const auto raw = jpeg::extract_block(img, 0, 0);
  const auto& first_impl = lib.at(0);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    fab.tile(sched.meta.front().tile)
        .set_dmem(first_impl.in_base + static_cast<int>(i),
                  from_signed(raw[i]));
  }
  const auto sres = config::run_schedule(fab, ctrl, sched.epochs, 1'000'000);
  if (!sres.ok) {
    std::printf("schedule run failed\n");
    return 1;
  }
  std::printf("profiled one JPEG block through the 1x4 compiled schedule "
              "(%zu epochs)\n\n",
              sched.epochs.size());

  const auto prof = config::build_profile(fab, sres.timeline);
  const int rc =
      emit(prof, metrics, spans, json, csv, trace_path, "profile_run:jpeg");
  if (rc != 0) return rc;

  TextTable table(
      {"process", "epochs", "executed cycles", "predicted cycles"});
  for (const auto& row :
       mapping::attribute_process_cycles(sched, sres.timeline)) {
    table.add_row({row.process < 0 ? std::string("(routing)")
                                   : net.process(row.process).name,
                   TextTable::integer(row.epochs),
                   TextTable::integer(row.cycles),
                   TextTable::integer(row.predicted_cycles)});
  }
  std::printf("\n%s", table.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cgra::engine::apply_engine_flag(&argc, argv);
  bool json = false;
  bool csv = false;
  std::string trace_path;
  std::string mode = "fft";
  std::vector<int> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--trace-json") == 0) {
      if (i + 1 >= argc) {
        std::printf("--trace-json needs a file argument\n");
        return 1;
      }
      trace_path = argv[++i];
    } else if (i == 1 && std::isalpha(static_cast<unsigned char>(*argv[i]))) {
      mode = argv[i];
    } else {
      pos.push_back(std::atoi(argv[i]));
    }
  }
  if (mode == "fft") return run_fft(pos, json, csv, trace_path);
  if (mode == "jpeg") return run_jpeg(pos, json, csv, trace_path);
  std::printf("unknown mode '%s' (expected fft or jpeg)\n", mode.c_str());
  return 1;
}

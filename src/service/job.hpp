// Job types for the cgra::service runtime.
//
// One submission API covers the workload families the repo models:
// JPEG encoding (single blocks — optionally under the fault-recovery
// manager — and whole images), fabric FFTs, DSE sweeps, and automatic
// process-network mapping (src/mapper/).  A JobRequest
// is a value: everything the executor needs travels in the request, so a
// job is a pure function and batched execution can be checked
// bit-for-bit against serial per-request execution.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "apps/fft/partition.hpp"
#include "apps/fft/reference.hpp"
#include "apps/jpeg/encoder.hpp"
#include "common/status.hpp"
#include "common/timing.hpp"
#include "config/reconfig.hpp"
#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "mapper/mapper.hpp"
#include "mapping/rebalance.hpp"
#include "obs/tracer.hpp"
#include "procnet/network.hpp"

namespace cgra::service {

// --- requests ------------------------------------------------------------

/// Encode one 8x8 block: shift -> DCT -> quantize -> zigzag on the 1x4
/// fabric pipeline.  With a non-empty `plan` the block instead runs under
/// the RecoveryManager on a `rows x cols` mesh (docs/FAULTS.md), honouring
/// the per-job recovery `policy`.
struct JpegBlockRequest {
  jpeg::IntBlock raw{};
  std::array<int, 64> quant{};
  faults::FaultPlan plan;              ///< Empty: plain pipeline path.
  faults::RecoveryPolicy policy{};     ///< Used only with a non-empty plan.
  int rows = 2;                        ///< Resilient-path mesh shape.
  int cols = 7;
};

/// Encode a whole grayscale image to a JFIF stream, with every block's
/// transform executed on the warm fabric pipeline.
struct JpegImageRequest {
  jpeg::Image image;
  int quality = 50;
};

/// Run an n-point FFT on the fabric (constant-geometry, Fig. 6 layout).
struct FftRequest {
  int n = 0;
  int m = 0;        ///< Partition size; 0 = memory-derived maximum.
  int cols = 1;     ///< Tile columns (must divide log2 n).
  std::vector<fft::Cplx> input;  ///< Size n, pre-scaled by 1/n.
};

/// Sweep tile budgets 1..max_tiles with a rebalance algorithm (Fig. 16).
struct DseSweepRequest {
  procnet::ProcessNetwork net;
  int max_tiles = 8;
  mapping::RebalanceAlgorithm algorithm = mapping::RebalanceAlgorithm::kTwo;
  mapping::CostParams params{};
};

/// Map an annotated process network onto a mesh with the automatic mapper
/// (exact or annealing, see src/mapper/).  The result carries the binding,
/// placement and link plan ready for mapping::compile_item_schedule.
struct MapJobRequest {
  procnet::ProcessNetwork net;
  int mesh_rows = 4;
  int mesh_cols = 4;
  mapper::MapperOptions options{};
};

using JobRequest =
    std::variant<JpegBlockRequest, JpegImageRequest, FftRequest,
                 DseSweepRequest, MapJobRequest>;

// --- results -------------------------------------------------------------

struct JpegBlockJobResult {
  jpeg::IntBlock zigzagged{};
  std::int64_t cycles = 0;
  Nanoseconds reconfig_ns = 0.0;   ///< 0 when the warm pipeline absorbed it.
  bool recovered = false;          ///< Resilient path had work to do.
};

struct JpegImageJobResult {
  std::vector<std::uint8_t> jfif;  ///< Byte-identical to encode_image().
  std::int64_t fabric_cycles = 0;  ///< Total transform cycles on the fabric.
};

struct FftJobResult {
  std::vector<fft::Cplx> output;
  config::Timeline timeline;
  int epochs = 0;
};

struct DseSweepJobResult {
  std::vector<mapping::SweepPoint> points;
};

struct MapJobResult {
  mapper::MappedNetwork mapped;
};

using JobPayload =
    std::variant<std::monostate, JpegBlockJobResult, JpegImageJobResult,
                 FftJobResult, DseSweepJobResult, MapJobResult>;

/// What wait() returns: a Status plus the kind-specific payload.
struct JobResult {
  Status status = Status::error("job did not run");
  JobPayload payload;

  [[nodiscard]] bool ok() const noexcept { return status.ok(); }
};

// --- lifecycle -----------------------------------------------------------

enum class JobPhase {
  kQueued,     ///< Accepted, waiting for a worker.
  kRunning,    ///< A worker is executing it.
  kDone,       ///< Result available (ok or error — see result.status).
  kCancelled,  ///< cancel() removed it before a worker picked it up.
};

[[nodiscard]] const char* job_phase_name(JobPhase phase) noexcept;

/// Shared job record; the service and the submitting thread both hold a
/// reference (JobHandle).  All fields below `mu` are guarded by it.
struct JobState {
  std::uint64_t id = 0;
  JobRequest request;
  std::string batch_key;  ///< Jobs with equal keys may share a batch.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  obs::TraceContext trace;  ///< Propagated wire-trace identity.
  /// Enqueue and dequeue instants on the process-wide trace clock
  /// (obs::trace_clock_ns).
  Nanoseconds trace_queued_ns = 0.0;
  Nanoseconds trace_started_ns = 0.0;

  std::mutex mu;
  std::condition_variable cv;
  JobPhase phase = JobPhase::kQueued;
  JobResult result;
  /// Fired exactly once when the job reaches kDone/kCancelled — the
  /// event-driven alternative to blocking in Service::wait().  Invoked
  /// OUTSIDE `mu`, so hooks may call back into the service.
  std::vector<std::function<void()>> completion_hooks;
};

}  // namespace cgra::service

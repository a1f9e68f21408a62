#include "apps/jpeg/fabric_jpeg.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "apps/fft/programs.hpp"  // must_assemble
#include "config/reconfig.hpp"
#include "fabric/fabric.hpp"
#include "interconnect/link.hpp"

namespace cgra::jpeg {

using fft::must_assemble;
using interconnect::Direction;

namespace {
void emit_equs(std::ostringstream& os, const JpegLayout& lay) {
  os << ".equ X, " << lay.x << "\n"
     << ".equ T, " << lay.t << "\n"
     << ".equ C, " << lay.c << "\n"
     << ".equ R, " << lay.r << "\n"
     << ".equ acc, " << lay.ctrl + 0 << "\n"
     << ".equ pa, " << lay.ctrl + 1 << "\n"
     << ".equ pb, " << lay.ctrl + 2 << "\n"
     << ".equ po, " << lay.ctrl + 3 << "\n"
     << ".equ cnt_i, " << lay.ctrl + 4 << "\n"
     << ".equ cnt_j, " << lay.ctrl + 5 << "\n"
     << ".equ cnt_k, " << lay.ctrl + 6 << "\n"
     << ".equ tmp, " << lay.ctrl + 7 << "\n"
     << ".equ pa_row, " << lay.ctrl + 8 << "\n"
     << ".equ pb_col, " << lay.ctrl + 9 << "\n";
}

/// One DCT pass as an 8x8x8 multiply-accumulate on the DSP accumulator:
///   out[i*8+j] = round_shift(sum_k A[a_row + k] * B[b_base + k*bk], 12)
/// where a_row = a_base + 8*i and b_base = b_start + bj*j.  The first
/// product is peeled into a `macz` (clearing the accumulator), the
/// remaining seven ride the 5-instruction `mac` loop.
void emit_matmul_pass(std::ostringstream& os, const char* label, int a_base,
                      int b_start, int bj, int bk, int out_base) {
  os << "  movi pa_row, #" << a_base << "\n"
     << "  movi po, #" << out_base << "\n"
     << "  movi cnt_i, #8\n"
     << label << "_iloop:\n"
     << "  movi pb_col, #" << b_start << "\n"
     << "  movi cnt_j, #8\n"
     << label << "_jloop:\n"
     << "  mov pa, pa_row\n"
     << "  mov pb, pb_col\n"
     << "  macz pa*, pb*\n"
     << "  add pa, pa, #1\n"
     << "  add pb, pb, #" << bk << "\n"
     << "  movi cnt_k, #7\n"
     << label << "_kloop:\n"
     << "  mac pa*, pb*\n"
     << "  add pa, pa, #1\n"
     << "  add pb, pb, #" << bk << "\n"
     << "  sub cnt_k, cnt_k, #1\n"
     << "  bnez cnt_k, " << label << "_kloop\n"
     << "  macr acc\n"
     << "  add acc, acc, #2048\n"
     << "  sra acc, acc, #12\n"
     << "  mov po*, acc\n"
     << "  add po, po, #1\n"
     << "  add pb_col, pb_col, #" << bj << "\n"
     << "  sub cnt_j, cnt_j, #1\n"
     << "  bnez cnt_j, " << label << "_jloop\n"
     << "  add pa_row, pa_row, #8\n"
     << "  sub cnt_i, cnt_i, #1\n"
     << "  bnez cnt_i, " << label << "_iloop\n";
}
}  // namespace

std::string shift_source(const JpegLayout& lay) {
  std::ostringstream os;
  emit_equs(os, lay);
  os << "  movi pa, #X\n"
     << "  movi cnt_k, #64\n"
     << "loop:\n"
     << "  sub pa*, pa*, #128\n"
     << "  add pa, pa, #1\n"
     << "  sub cnt_k, cnt_k, #1\n"
     << "  bnez cnt_k, loop\n"
     << "  halt\n";
  return os.str();
}

std::string dct_source(const JpegLayout& lay) {
  std::ostringstream os;
  emit_equs(os, lay);
  // Pass 1: T[u*8+x] = rs(sum_y C[u*8+y] * X[y*8+x]):   A=C, B walks X
  // columns (step 8), next column per j (step 1).
  emit_matmul_pass(os, "p1", lay.c, lay.x, /*bj=*/1, /*bk=*/8, lay.t);
  // Pass 2: X[u*8+v] = rs(sum_x T[u*8+x] * C[v*8+x]):   A=T, B walks C rows
  // (step 1), next row per j (step 8).  Output overwrites X.
  emit_matmul_pass(os, "p2", lay.t, lay.c, /*bj=*/8, /*bk=*/1, lay.x);
  os << "  halt\n";
  return os.str();
}

std::string quantize_source(const JpegLayout& lay) {
  std::ostringstream os;
  emit_equs(os, lay);
  os << "  movi pa, #X\n"
     << "  movi pb, #R\n"
     << "  movi cnt_k, #64\n"
     << "loop:\n"
     << "  mul tmp, pa*, pb*\n"
     << "  add tmp, tmp, #32768\n"
     << "  sra tmp, tmp, #16\n"
     << "  mov pa*, tmp\n"
     << "  add pa, pa, #1\n"
     << "  add pb, pb, #1\n"
     << "  sub cnt_k, cnt_k, #1\n"
     << "  bnez cnt_k, loop\n"
     << "  halt\n";
  return os.str();
}

std::string zigzag_source(const JpegLayout& lay) {
  std::ostringstream os;
  // Straight-line gather: T[i] = X[zigzag(i)].  64 instructions + halt —
  // the same 65-word footprint Table 3 reports for the zigzag process.
  for (int i = 0; i < 64; ++i) {
    os << "  mov " << lay.t + i << ", "
       << lay.x + zigzag_order()[static_cast<std::size_t>(i)] << "\n";
  }
  os << "  halt\n";
  return os.str();
}

std::string send_block_source(const JpegLayout& lay, int src_base,
                               int dst_base) {
  std::ostringstream os;
  emit_equs(os, lay);
  os << "  movi pa, #" << src_base << "\n"
     << "  movi po, #" << dst_base << "\n"
     << "  movi cnt_k, #64\n"
     << "sloop:\n"
     << "  mov !po*, pa*\n"
     << "  add pa, pa, #1\n"
     << "  add po, po, #1\n"
     << "  sub cnt_k, cnt_k, #1\n"
     << "  bnez cnt_k, sloop\n"
     << "  halt\n";
  return os.str();
}

namespace {
std::string strip_halt(std::string src) {
  const auto pos = src.rfind("  halt");
  if (pos != std::string::npos) src.resize(pos);
  return src;
}

std::vector<isa::DataPatch> basis_patches(const JpegLayout& lay) {
  std::vector<isa::DataPatch> out;
  const auto& c = dct_basis_q12();
  out.reserve(64);
  for (int i = 0; i < 64; ++i) {
    out.push_back(isa::DataPatch{
        lay.c + i, from_signed(c[static_cast<std::size_t>(i)])});
  }
  return out;
}

std::vector<isa::DataPatch> recip_patches(const JpegLayout& lay,
                                          const std::array<int, 64>& quant) {
  std::vector<isa::DataPatch> out;
  out.reserve(64);
  for (int i = 0; i < 64; ++i) {
    out.push_back(isa::DataPatch{
        lay.r + i,
        from_signed(quant_reciprocal(quant[static_cast<std::size_t>(i)]))});
  }
  return out;
}

/// The 1x4 pipeline's content: each stage runs `prologue`, computes in
/// place, then streams X (or T for the zigzag gather) to its successor's
/// `dst_base` block.
JpegPipelineArtifacts pipeline_artifacts(const std::array<int, 64>& quant,
                                         const std::string& prologue,
                                         int dst_base) {
  const JpegLayout lay;
  const std::string srcs[4] = {
      prologue + strip_halt(shift_source(lay)) +
          send_block_source(lay, lay.x, dst_base),
      prologue + strip_halt(dct_source(lay)) +
          send_block_source(lay, lay.x, dst_base),
      prologue + strip_halt(quantize_source(lay)) +
          send_block_source(lay, lay.x, dst_base),
      prologue + zigzag_source(lay),
  };
  JpegPipelineArtifacts art;
  for (int t = 0; t < 4; ++t) {
    art.stage_programs[static_cast<std::size_t>(t)] =
        isa::prepare(must_assemble(srcs[static_cast<std::size_t>(t)]));
  }
  art.basis = basis_patches(lay);
  art.recips = recip_patches(lay, quant);
  return art;
}
}  // namespace

JpegKernelCycles measure_jpeg_kernels() {
  const JpegLayout lay;
  JpegKernelCycles cycles;
  auto run_one = [&](const std::string& src) -> std::int64_t {
    fabric::Fabric fab(1, 1);
    fab.tile(0).load_program(must_assemble(src));
    fab.tile(0).restart();
    const auto run = fab.run(10'000'000);
    return run.ok() ? run.cycles : -1;
  };
  cycles.shift = run_one(shift_source(lay));
  cycles.dct = run_one(dct_source(lay));
  cycles.quantize = run_one(quantize_source(lay));
  cycles.zigzag = run_one(zigzag_source(lay));
  return cycles;
}

JpegPipelineArtifacts make_pipeline_artifacts(
    const std::array<int, 64>& quant) {
  return pipeline_artifacts(quant, "", JpegLayout{}.x);
}

BlockPipeline::BlockPipeline(fabric::Fabric& fab,
                             const JpegPipelineArtifacts& art)
    : fab_(fab) {
  if (fab.rows() != 1 || fab.cols() != 4) {
    setup_ = Status::errorf("pipeline needs a 1x4 fabric, got %dx%d",
                            fab.rows(), fab.cols());
    return;
  }
  config::ReconfigController ctrl(IcapModel{}, interconnect::LinkCostModel{});
  interconnect::LinkConfig links(1, 4);
  for (int t = 0; t < 3; ++t) links.set_output(t, Direction::kEast);

  // One-time configuration epoch: programs + constant tables.
  config::EpochConfig setup;
  setup.name = "jpeg-setup";
  setup.links = links;
  for (int t = 0; t < 4; ++t) {
    config::TileUpdate update;
    update.program = art.stage_programs[static_cast<std::size_t>(t)];
    update.restart = false;  // per stage in encode(), per stream beat
    if (t == 1) update.patches = art.basis;
    if (t == 2) update.patches = art.recips;
    setup.tiles[t] = std::move(update);
  }
  const auto report = ctrl.apply(fab_, setup);
  setup_ns_ = report.total_ns();
  for (int t = 0; t < 4; ++t) {
    const auto& image = *art.stage_programs[static_cast<std::size_t>(t)];
    if (fab_.tile(t).code_size() != image.inst_words()) {
      setup_ = Status::errorf("stage %d program does not fit the tile", t);
      return;
    }
  }
  // The setup epoch owns its ICAP stall: wait it out here so that every
  // encode(), the first included, runs on an already configured pipeline.
  fab_.idle_until(report.complete_cycle);
}

FabricBlockResult BlockPipeline::encode(const IntBlock& raw) {
  FabricBlockResult result;
  if (!setup_.ok()) {
    result.status = setup_;
    return result;
  }
  const JpegLayout lay;
  for (int i = 0; i < 64; ++i) {
    fab_.tile(0).set_dmem(lay.x + i,
                          from_signed(raw[static_cast<std::size_t>(i)]));
  }
  // Drive the pipeline stage by stage (one block; steady-state overlap is
  // the mapping model's job, correctness is this function's).  Every stage
  // fully overwrites its successor's working block, so back-to-back blocks
  // on the warm pipeline behave exactly like the first.
  for (int t = 0; t < 4; ++t) {
    fab_.tile(t).restart();
    const auto run = fab_.run(1'000'000);
    result.total_cycles += run.cycles;
    if (!run.ok()) {
      result.faults = run.faults;
      result.status = Status::errorf(
          "stage %d %s", t,
          run.faults.empty() ? "exceeded the cycle budget"
                             : run.faults.front().describe().c_str());
      return result;
    }
  }
  for (int i = 0; i < 64; ++i) {
    result.zigzagged[static_cast<std::size_t>(i)] =
        static_cast<int>(to_signed(fab_.tile(3).dmem(lay.t + i)));
  }
  result.status = Status();
  return result;
}

FabricBlockResult encode_block_on_fabric(const IntBlock& raw,
                                         const std::array<int, 64>& quant) {
  fabric::Fabric fab(1, 4);
  BlockPipeline pipeline(fab, make_pipeline_artifacts(quant));
  FabricBlockResult result = pipeline.encode(raw);
  result.reconfig_ns += pipeline.setup_reconfig_ns();
  return result;
}

namespace {

/// Emit the inlined "append `code_reg` of `len_reg` bits, flush 24-bit
/// words" sequence.  `tag` keeps the labels unique per expansion.
void emit_append(std::ostringstream& os, const char* tag) {
  os << "  shl acc, acc, len\n"
     << "  orr acc, acc, code\n"
     << "  add nbits, nbits, len\n"
     << "fl_" << tag << ":\n"
     << "  sub t0, nbits, #24\n"
     << "  bltz t0, fd_" << tag << "\n"
     << "  shr t1, acc, t0\n"
     << "  and t1, t1, MASK24\n"
     << "  mov optr*, t1\n"
     << "  add optr, optr, #1\n"
     << "  mov nbits, t0\n"
     << "  movi t1, #1\n"
     << "  shl t1, t1, nbits\n"
     << "  sub t1, t1, #1\n"
     << "  and acc, acc, t1\n"
     << "  jmp fl_" << tag << "\n"
     << "fd_" << tag << ":\n";
}

/// Emit "cat = bit_category(v)" with |v| via t0.
void emit_category(std::ostringstream& os, const char* tag) {
  os << "  mov mag, v\n"
     << "  bltz mag, neg_" << tag << "\n"
     << "  jmp cs_" << tag << "\n"
     << "neg_" << tag << ":\n"
     << "  movi t0, #0\n"
     << "  sub mag, t0, mag\n"
     << "cs_" << tag << ":\n"
     << "  movi cat, #0\n"
     << "cl_" << tag << ":\n"
     << "  beqz mag, cd_" << tag << "\n"
     << "  shr mag, mag, #1\n"
     << "  add cat, cat, #1\n"
     << "  jmp cl_" << tag << "\n"
     << "cd_" << tag << ":\n";
}

/// Emit "code/len <- packed table entry at `base` + `index_reg`".
void emit_lookup(std::ostringstream& os, int base, const char* index_reg) {
  os << "  movi t0, #" << base << "\n"
     << "  add t0, t0, " << index_reg << "\n"
     << "  mov t1, t0*\n"
     << "  shr len, t1, #16\n"
     << "  and code, t1, #65535\n";
}

/// Emit "code/len <- amplitude bits of v in cat bits" (one's-complement
/// form for negatives), then append.
void emit_amplitude(std::ostringstream& os, const char* tag) {
  os << "  beqz cat, aa_done_" << tag << "\n"
     << "  mov code, v\n"
     << "  bltz code, an_" << tag << "\n"
     << "  jmp ap_" << tag << "\n"
     << "an_" << tag << ":\n"
     << "  movi t0, #1\n"
     << "  shl t0, t0, cat\n"
     << "  sub t0, t0, #1\n"
     << "  add code, code, t0\n"
     << "ap_" << tag << ":\n"
     << "  mov len, cat\n";
  emit_append(os, tag);
  os << "aa_done_" << tag << ":\n";
}

}  // namespace

std::string hman_source(const HmanLayout& lay) {
  std::ostringstream os;
  const int c = lay.ctrl;
  os << ".equ ZZ, " << lay.zz << "\n"
     << ".equ OUT, " << lay.out << "\n"
     << ".equ ACTAB, " << lay.ac_tab << "\n"
     << ".equ DCTAB, " << lay.dc_tab << "\n"
     << ".equ MASK24, " << lay.mask24 << "\n"
     << ".equ PREVDC, " << lay.prev_dc << "\n"
     << ".equ ACCOUT, " << lay.acc_out << "\n"
     << ".equ NBITSOUT, " << lay.nbits_out << "\n"
     << ".equ OUTCOUNT, " << lay.out_count << "\n"
     << ".equ pz, " << c + 0 << "\n"
     << ".equ k, " << c + 1 << "\n"
     << ".equ run, " << c + 2 << "\n"
     << ".equ v, " << c + 3 << "\n"
     << ".equ mag, " << c + 4 << "\n"
     << ".equ cat, " << c + 5 << "\n"
     << ".equ code, " << c + 6 << "\n"
     << ".equ len, " << c + 7 << "\n"
     << ".equ acc, " << c + 8 << "\n"
     << ".equ nbits, " << c + 9 << "\n"
     << ".equ optr, " << c + 10 << "\n"
     << ".equ t0, " << c + 11 << "\n"
     << ".equ t1, " << c + 12 << "\n"
     << ".equ sym, " << c + 13 << "\n";

  // --- init ---
  os << "  movi acc, #0\n"
     << "  movi nbits, #0\n"
     << "  movi optr, #OUT\n"
     << "  movi run, #0\n";

  // --- DC: v = zz[0] - prev_dc ---
  os << "  mov v, ZZ\n"
     << "  sub v, v, PREVDC\n";
  emit_category(os, "dc");
  emit_lookup(os, lay.dc_tab, "cat");
  emit_append(os, "dcc");
  emit_amplitude(os, "dca");
  os << "  mov PREVDC, ZZ\n";  // new predictor = this block's DC

  // --- AC loop: k = 1..63 ---
  os << "  movi pz, #ZZ+1\n"
     << "  movi k, #63\n"
     << "acloop:\n"
     << "  mov v, pz*\n"
     << "  bnez v, nonzero\n"
     << "  add run, run, #1\n"
     << "  jmp acnext\n"
     << "nonzero:\n"
     // while run >= 16: emit ZRL (symbol 0xF0), run -= 16
     << "zrl:\n"
     << "  sub t0, run, #16\n"
     << "  bltz t0, zrldone\n"
     << "  mov run, t0\n"
     << "  movi sym, #240\n";
  emit_lookup(os, lay.ac_tab, "sym");
  emit_append(os, "zrl");
  os << "  jmp zrl\n"
     << "zrldone:\n";
  emit_category(os, "ac");
  // sym = (run << 4) | cat
  os << "  shl sym, run, #4\n"
     << "  orr sym, sym, cat\n";
  emit_lookup(os, lay.ac_tab, "sym");
  emit_append(os, "acc");
  emit_amplitude(os, "aca");
  os << "  movi run, #0\n"
     << "acnext:\n"
     << "  add pz, pz, #1\n"
     << "  sub k, k, #1\n"
     << "  bnez k, acloop\n";

  // --- trailing EOB (symbol 0x00) if zeros remain ---
  os << "  beqz run, finish\n"
     << "  movi sym, #0\n";
  emit_lookup(os, lay.ac_tab, "sym");
  emit_append(os, "eob");

  // --- store the residual accumulator and word count ---
  os << "finish:\n"
     << "  mov ACCOUT, acc\n"
     << "  mov NBITSOUT, nbits\n"
     << "  movi t0, #OUT\n"
     << "  sub t0, optr, t0\n"
     << "  mov OUTCOUNT, t0\n"
     << "  halt\n";
  return os.str();
}

std::vector<isa::DataPatch> hman_patches(const HmanLayout& lay, int prev_dc) {
  std::vector<isa::DataPatch> out;
  const HuffEncoder dc = build_encoder(dc_luminance_spec());
  const HuffEncoder ac = build_encoder(ac_luminance_spec());
  for (int cat = 0; cat < 12; ++cat) {
    out.push_back(isa::DataPatch{
        lay.dc_tab + cat,
        static_cast<Word>(
            (static_cast<std::uint32_t>(dc.length[static_cast<std::size_t>(cat)])
             << 16) |
            dc.code[static_cast<std::size_t>(cat)])});
  }
  for (int sym = 0; sym < 256; ++sym) {
    out.push_back(isa::DataPatch{
        lay.ac_tab + sym,
        static_cast<Word>(
            (static_cast<std::uint32_t>(ac.length[static_cast<std::size_t>(sym)])
             << 16) |
            ac.code[static_cast<std::size_t>(sym)])});
  }
  out.push_back(isa::DataPatch{lay.mask24, 0xFFFFFF});
  out.push_back(isa::DataPatch{lay.prev_dc, from_signed(prev_dc)});
  return out;
}

FabricEntropyResult encode_entropy_on_fabric(const IntBlock& zz,
                                             int prev_dc) {
  FabricEntropyResult result;
  const HmanLayout lay;
  fabric::Fabric fab(1, 1);
  auto& tile = fab.tile(0);
  if (!tile.load_program(must_assemble(hman_source(lay)))) {
    result.status = Status::error("hman program exceeds the tile memories");
    return result;
  }
  if (!tile.patch_data(hman_patches(lay, prev_dc))) {
    result.status = Status::error("hman table patches out of range");
    return result;
  }
  for (int i = 0; i < 64; ++i) {
    tile.set_dmem(lay.zz + i, from_signed(zz[static_cast<std::size_t>(i)]));
  }
  tile.restart();
  const auto run = fab.run(10'000'000);
  if (!run.ok()) {
    result.status = Status::errorf(
        "hman run failed: %s",
        run.faults.empty() ? "cycle budget exceeded"
                           : run.faults.front().describe().c_str());
    return result;
  }
  result.cycles = run.cycles;

  // Unpack the 24-bit chunks plus the residual tail into a bit string.
  const auto words = static_cast<int>(to_signed(tile.dmem(lay.out_count)));
  for (int w = 0; w < words; ++w) {
    const Word chunk = tile.dmem(lay.out + w);
    for (int b = 23; b >= 0; --b) {
      result.bits.push_back(static_cast<std::uint8_t>((chunk >> b) & 1));
    }
  }
  const auto tail = tile.dmem(lay.acc_out);
  const auto tail_bits = static_cast<int>(to_signed(tile.dmem(lay.nbits_out)));
  for (int b = tail_bits - 1; b >= 0; --b) {
    result.bits.push_back(static_cast<std::uint8_t>((tail >> b) & 1));
  }
  result.status = Status();
  return result;
}

mapping::ProgramLibrary jpeg_program_library(const std::array<int, 64>& quant) {
  const JpegLayout lay;
  mapping::ProgramLibrary lib;
  {
    mapping::CompiledProcess shift;
    shift.program = must_assemble(shift_source(lay));
    shift.in_base = lay.x;
    shift.out_base = lay.x;
    lib[0] = std::move(shift);
  }
  {
    mapping::CompiledProcess dct;
    dct.program = must_assemble(dct_source(lay));
    dct.constants = basis_patches(lay);
    dct.in_base = lay.x;
    dct.out_base = lay.x;
    lib[1] = std::move(dct);
  }
  {
    mapping::CompiledProcess quantize;
    quantize.program = must_assemble(quantize_source(lay));
    quantize.constants = recip_patches(lay, quant);
    quantize.in_base = lay.x;
    quantize.out_base = lay.x;
    lib[2] = std::move(quantize);
  }
  {
    mapping::CompiledProcess zigzag;
    zigzag.program = must_assemble(zigzag_source(lay));
    zigzag.in_base = lay.x;
    zigzag.out_base = lay.t;
    lib[3] = std::move(zigzag);
  }
  return lib;
}

procnet::ProcessNetwork jpeg_transform_pipeline() {
  const auto cycles = measure_jpeg_kernels();
  std::vector<procnet::Process> procs;
  procs.push_back({"shift", 4 + 1, 0, 0, 0, cycles.shift, 1, true});
  procs.push_back({"DCT", 50, 64, 10, 0, cycles.dct, 1, true});
  procs.push_back({"Quantize", 9, 64, 1, 0, cycles.quantize, 1, true});
  procs.push_back({"Zigzag", 65, 0, 0, 0, cycles.zigzag, 1, true});
  return procnet::ProcessNetwork::pipeline(std::move(procs), 64);
}

FabricStreamResult encode_blocks_on_fabric_stream(
    const std::vector<IntBlock>& blocks, const std::array<int, 64>& quant) {
  FabricStreamResult result;
  const JpegLayout lay;
  constexpr int kStages = 4;

  // Every stage first copies the double-buffered P inbox into X, and
  // sends its block to its successor's inbox.  BlockPipeline pays the
  // one ICAP setup epoch and waits out its stall before the first beat.
  std::vector<std::pair<int, int>> inbox_moves;
  inbox_moves.reserve(64);
  for (int i = 0; i < 64; ++i) inbox_moves.emplace_back(lay.p + i, lay.x + i);
  const std::string prologue =
      strip_halt(fft::copy_straight_source(inbox_moves, /*remote=*/false));
  fabric::Fabric fab(1, kStages);
  const BlockPipeline pipeline(fab, pipeline_artifacts(quant, prologue, lay.p));
  result.setup_reconfig_ns = pipeline.setup_reconfig_ns();
  if (!pipeline.setup_status().ok()) {
    result.status = pipeline.setup_status();
    return result;
  }

  // Beats: in beat b tile t works on block b - t.  The pipe drains after
  // blocks.size() + kStages - 1 beats.
  const int n_blocks = static_cast<int>(blocks.size());
  const int n_beats = n_blocks + kStages - 1;
  result.zigzagged.reserve(static_cast<std::size_t>(n_blocks));
  for (int beat = 0; beat < n_beats; ++beat) {
    // Feed the next raw block into tile 0's inbox.
    if (beat < n_blocks) {
      auto& t0 = fab.tile(0);
      for (int i = 0; i < 64; ++i) {
        t0.set_dmem(lay.p + i,
                    from_signed(blocks[static_cast<std::size_t>(beat)]
                                      [static_cast<std::size_t>(i)]));
      }
    }
    // Restart exactly the stages that hold a live block this beat.
    for (int t = 0; t < kStages; ++t) {
      const int block = beat - t;
      if (block >= 0 && block < n_blocks) fab.tile(t).restart();
    }
    const auto run = fab.run(10'000'000);
    result.beat_cycles.push_back(run.cycles);
    if (!run.ok()) {
      result.faults = run.faults;
      result.status = Status::errorf(
          "beat %d failed: %s", beat,
          run.faults.empty() ? "cycle budget exceeded"
                             : run.faults.front().describe().c_str());
      return result;
    }
    // Collect the drained block from the zigzag tile.
    const int done = beat - (kStages - 1);
    if (done >= 0 && done < n_blocks) {
      IntBlock out{};
      for (int i = 0; i < 64; ++i) {
        out[static_cast<std::size_t>(i)] =
            static_cast<int>(to_signed(fab.tile(kStages - 1).dmem(lay.t + i)));
      }
      result.zigzagged.push_back(out);
    }
  }

  // Steady-state beat: median of the fully-overlapped beats.
  if (n_beats >= 2 * kStages) {
    std::vector<std::int64_t> steady(
        result.beat_cycles.begin() + (kStages - 1),
        result.beat_cycles.end() - (kStages - 1));
    std::sort(steady.begin(), steady.end());
    result.steady_ii_cycles = steady[steady.size() / 2];
  } else if (!result.beat_cycles.empty()) {
    result.steady_ii_cycles =
        *std::max_element(result.beat_cycles.begin(), result.beat_cycles.end());
  }
  result.status = Status();
  return result;
}

ResilientJpegArtifacts make_resilient_artifacts(
    const std::array<int, 64>& quant, int rows, int cols) {
  ResilientJpegArtifacts art;
  art.net = jpeg_transform_pipeline();
  art.library = jpeg_program_library(quant);
  art.binding.groups = {{{0}, 1}, {{1}, 1}, {{2}, 1}, {{3}, 1}};
  art.placement = mapping::place(art.binding, rows, cols,
                                 mapping::PlacementStrategy::kSnake);
  return art;
}

ResilientBlockResult encode_block_resilient_on(
    fabric::Fabric& fab, const ResilientJpegArtifacts& art,
    const IntBlock& raw, const faults::FaultPlan& plan,
    const faults::RecoveryPolicy& policy) {
  ResilientBlockResult result;
  config::ReconfigController ctrl(IcapModel{},
                                  interconnect::LinkCostModel{50.0});
  faults::FaultInjector injector(plan);
  faults::RecoveryManager manager(fab, ctrl,
                                  plan.empty() ? nullptr : &injector, policy);

  std::vector<Word> input;
  input.reserve(raw.size());
  for (const int v : raw) input.push_back(from_signed(v));
  result.report = manager.run_item(art.net, art.binding, art.placement,
                                   art.library, input);
  if (result.report.ok) {
    for (std::size_t i = 0; i < result.zigzagged.size(); ++i) {
      result.zigzagged[i] = static_cast<int>(to_signed(result.report.output[i]));
    }
  }
  return result;
}

ResilientBlockResult encode_block_resilient(const IntBlock& raw,
                                            const std::array<int, 64>& quant,
                                            const faults::FaultPlan& plan,
                                            const faults::RecoveryPolicy& policy,
                                            int rows, int cols) {
  const auto art = make_resilient_artifacts(quant, rows, cols);
  fabric::Fabric fab(rows, cols);
  return encode_block_resilient_on(fab, art, raw, plan, policy);
}

}  // namespace cgra::jpeg

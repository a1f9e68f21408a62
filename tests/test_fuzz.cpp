// Randomised robustness tests: seeded "fuzzing" of the decoders, codecs
// and algorithms, including a mutational fuzzer over the wire codec seeded
// with the golden frames and one over disassembled programs.  Nothing
// here may crash; errors must surface as Status / ok-flags, and round-trip
// properties must hold for arbitrary valid input.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/jpeg/decoder.hpp"
#include "apps/jpeg/encoder.hpp"
#include "common/prng.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "golden_frames.hpp"
#include "mapping/rebalance.hpp"

namespace cgra {
namespace {

// ---- random instruction round-trips through the full text pipeline ----

/// 200 random instructions in the forms the assembler syntax can express.
isa::Program random_program(SplitMix64& rng) {
  isa::Program prog;
  for (int i = 0; i < 200; ++i) {
    isa::Instruction in;
    in.opcode = static_cast<isa::Opcode>(
        rng.next_below(static_cast<std::uint64_t>(isa::Opcode::kOpcodeCount)));
    if (isa::writes_dst(in.opcode)) {
      in.dst = static_cast<std::uint16_t>(rng.next_below(512));
      if (rng.next_below(2) != 0) in.flags |= isa::kFlagDstIndirect;
      if (rng.next_below(4) == 0) in.flags |= isa::kFlagDstRemote;
    }
    if (isa::reads_srca(in.opcode)) {
      in.srca = static_cast<std::uint16_t>(rng.next_below(512));
      if (rng.next_below(2) != 0) in.flags |= isa::kFlagSrcAIndirect;
    }
    if (in.opcode == isa::Opcode::kMovi) {
      in.flags |= isa::kFlagUseImm;
      in.imm = static_cast<std::int32_t>(rng.next_below(1 << 20)) - (1 << 19);
    } else if (isa::reads_srcb(in.opcode)) {
      if (rng.next_below(2) != 0) {
        in.flags |= isa::kFlagUseImm;
        in.imm = static_cast<std::int32_t>(rng.next_below(1 << 20)) - (1 << 19);
      } else {
        in.srcb = static_cast<std::uint16_t>(rng.next_below(512));
        if (rng.next_below(2) != 0) in.flags |= isa::kFlagSrcBIndirect;
      }
    } else if (isa::is_branch(in.opcode)) {
      in.imm = static_cast<std::int32_t>(rng.next_below(200));
    }
    prog.code.push_back(in);
  }
  return prog;
}

class IsaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsaFuzz, RandomInstructionsSurviveDisassembleReassemble) {
  SplitMix64 rng(GetParam());
  const isa::Program prog = random_program(rng);
  const auto round = isa::assemble(isa::disassemble(prog));
  ASSERT_TRUE(round.ok()) << round.status.message();
  ASSERT_EQ(round.program.code.size(), prog.code.size());
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    EXPECT_EQ(round.program.code[i], prog.code[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsaFuzz,
                         ::testing::Values(1u, 7u, 99u, 1234u));

TEST(IsaFuzz, GarbageSourceNeverCrashes) {
  SplitMix64 rng(0xDEAD);
  for (int round = 0; round < 50; ++round) {
    std::string junk;
    const std::size_t len = rng.next_below(200);
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(' ' + rng.next_below(94)));
    }
    const auto result = isa::assemble(junk);  // must not crash or hang
    (void)result.ok();
  }
}

TEST(IsaFuzz, MutatedDisassemblyNeverCrashes) {
  // Near-valid source reaches deeper into the assembler than random bytes:
  // drop or duplicate a line, swap two tokens, or edit the digits of one.
  for (const std::uint64_t seed : {1u, 7u, 99u, 1234u}) {
    SplitMix64 rng(seed);
    std::vector<std::string> lines;
    std::istringstream text(isa::disassemble(random_program(rng)));
    for (std::string line; std::getline(text, line);) lines.push_back(line);
    for (int round = 0; round < 300; ++round) {
      auto src = lines;
      const auto pick = [&] { return rng.next_below(src.size()); };
      for (int m = 1 + static_cast<int>(rng.next_below(3)); m > 0; --m) {
        switch (rng.next_below(4)) {
          case 0:  // drop a line
            src.erase(src.begin() + static_cast<long>(pick()));
            break;
          case 1:  // duplicate a line
            src.insert(src.begin() + static_cast<long>(pick()), src[pick()]);
            break;
          case 2: {  // swap two whitespace-separated tokens
            std::string& a = src[pick()];
            std::string& b = src[pick()];
            const auto token = [&](std::string& line) {
              std::vector<std::pair<std::size_t, std::size_t>> spans;
              for (std::size_t i = 0; i < line.size();) {
                const std::size_t start = line.find_first_not_of(' ', i);
                if (start == std::string::npos) break;
                const std::size_t end = std::min(line.find(' ', start),
                                                 line.size());
                spans.emplace_back(start, end - start);
                i = end;
              }
              return spans.empty() ? std::pair<std::size_t, std::size_t>{0, 0}
                                   : spans[rng.next_below(spans.size())];
            };
            const auto [ap, an] = token(a);
            const auto [bp, bn] = token(b);
            const std::string ta = a.substr(ap, an);
            const std::string tb = b.substr(bp, bn);
            if (&a == &b) break;
            a.replace(ap, an, tb);
            b.replace(bp, bn, ta);
            break;
          }
          default: {  // edit digits: replace one, or grow it past any bound
            std::string& line = src[pick()];
            std::size_t at = line.find_first_of("0123456789");
            if (at == std::string::npos) break;
            // A random digit of the line, not always the first.
            for (std::size_t skip = rng.next_below(4); skip > 0; --skip) {
              const std::size_t next = line.find_first_of("0123456789", at + 1);
              if (next == std::string::npos) break;
              at = next;
            }
            if (rng.next_below(2) == 0) {
              line[at] = static_cast<char>('0' + rng.next_below(10));
            } else {
              line.insert(at, std::string(1 + rng.next_below(12), '9'));
            }
            break;
          }
        }
        if (src.empty()) break;
      }
      std::string joined;
      for (const auto& line : src) joined += line + "\n";
      const auto result = isa::assemble(joined);  // must simply return
      (void)result.ok();
    }
  }
}

// ---- wire codec: mutate the golden frames ----

constexpr std::uint32_t kCountCaps[] = {
    net::kMaxFftPoints,    net::kMaxFaultEvents,   net::kMaxProcesses,
    net::kMaxEdges,        net::kMaxSweepPoints,   net::kMaxStatsSamples,
    net::kMaxStringBytes,  net::kMaxTraceBytes,    net::kMaxPayload / 2};

void put_u32(std::vector<std::uint8_t>& f, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    f[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Decode `bytes` the way a connection would, and check the properties:
/// the decoders return a Status, and a job request that decodes is a
/// fixed point of re-encoding.
void check_frame(const std::vector<std::uint8_t>& bytes) {
  net::Frame frame;
  if (!net::decode_header(bytes, &frame.header).ok()) return;
  if (bytes.size() - net::kHeaderSize < frame.header.payload_len) return;
  const auto body = bytes.begin() + static_cast<long>(net::kHeaderSize);
  frame.payload.assign(body, body + frame.header.payload_len);
  net::Response resp;
  (void)net::decode_response(frame, &resp);
  net::Request req;
  if (!net::decode_request(frame, &req).ok() ||
      !net::msg_type_is_job(req.type)) {
    return;
  }
  std::vector<std::uint8_t> once;
  ASSERT_TRUE(
      net::encode_job_request(req.request_id, req.job, &once, req.options)
          .ok());
  net::Frame again;
  ASSERT_TRUE(net::decode_header(once, &again.header).ok());
  again.payload.assign(once.begin() + static_cast<long>(net::kHeaderSize),
                       once.end());
  net::Request req2;
  const Status s = net::decode_request(again, &req2);
  ASSERT_TRUE(s.ok()) << s.message();
  std::vector<std::uint8_t> twice;
  ASSERT_TRUE(
      net::encode_job_request(req2.request_id, req2.job, &twice, req2.options)
          .ok());
  ASSERT_EQ(once, twice) << net::msg_type_name(req.type);
}

TEST(WireFuzz, MutatedFramesDecodeToStatusAndRequestsAreFixedPoints) {
  const auto corpus = net::golden::frames();
  for (const auto& f : corpus) check_frame(f);

  // Every seed frame with a hostile count at every payload offset, so each
  // real count field sees both max+1 for every cap and 0xFFFFFFFF.
  for (const auto& seed : corpus) {
    for (std::size_t at = net::kHeaderSize; at + 4 <= seed.size(); ++at) {
      for (const std::uint32_t cap : kCountCaps) {
        for (const std::uint32_t v : {cap + 1, 0xFFFFFFFFu}) {
          auto f = seed;
          put_u32(f, at, v);
          check_frame(f);
        }
      }
    }
  }

  // Random stacks of bit flips, byte overwrites, truncations, length
  // edits, count edits and splices.
  SplitMix64 rng(0x5EEDF00D);
  for (int round = 0; round < 60000; ++round) {
    auto f = corpus[rng.next_below(corpus.size())];
    for (int m = 1 + static_cast<int>(rng.next_below(3)); m > 0; --m) {
      const std::size_t payload =
          f.size() > net::kHeaderSize ? f.size() - net::kHeaderSize : 0;
      switch (rng.next_below(6)) {
        case 0:  // bit flip
          if (!f.empty()) {
            f[rng.next_below(f.size())] ^=
                static_cast<std::uint8_t>(1u << rng.next_below(8));
          }
          break;
        case 1: {  // byte overwrite
          static constexpr std::uint8_t kBytes[] = {0x00, 0x01, 0x02, 0x7F,
                                                    0x80, 0xFE, 0xFF};
          if (!f.empty()) {
            f[rng.next_below(f.size())] =
                rng.next_below(2) == 0
                    ? kBytes[rng.next_below(std::size(kBytes))]
                    : static_cast<std::uint8_t>(rng.next());
          }
          break;
        }
        case 2:  // truncation
          f.resize(rng.next_below(f.size() + 1));
          break;
        case 3:  // payload-length edit
          if (f.size() >= net::kHeaderSize) {
            const std::uint64_t len =
                rng.next_below(2) == 0
                    ? payload + rng.next_below(17) - rng.next_below(17)
                    : rng.next();
            put_u32(f, 8, static_cast<std::uint32_t>(len));
          }
          break;
        case 4:  // count edit at a random payload offset
          if (payload >= 4) {
            const std::uint32_t cap =
                kCountCaps[rng.next_below(std::size(kCountCaps))];
            put_u32(f, net::kHeaderSize + rng.next_below(payload - 3),
                    rng.next_below(2) == 0 ? cap + 1 : 0xFFFFFFFFu);
          }
          break;
        default: {  // splice: a prefix of this frame, a suffix of another
          const auto& other = corpus[rng.next_below(corpus.size())];
          if (f.size() < net::kHeaderSize) break;
          f.resize(net::kHeaderSize + rng.next_below(payload + 1));
          const std::size_t from =
              net::kHeaderSize +
              rng.next_below(other.size() - net::kHeaderSize + 1);
          f.insert(f.end(), other.begin() + static_cast<long>(from),
                   other.end());
          put_u32(f, 8,
                  static_cast<std::uint32_t>(f.size() - net::kHeaderSize));
          break;
        }
      }
    }
    check_frame(f);
    if (HasFatalFailure()) return;
  }
}

// ---- decoder corruption: flip bytes of a valid stream ----

class JpegCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JpegCorruption, CorruptedStreamsFailGracefully) {
  const auto img = jpeg::synthetic_image(32, 32, 5);
  auto bytes = jpeg::encode_image(img, 50);
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    auto corrupted = bytes;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.next_below(corrupted.size());
      corrupted[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    const auto result = jpeg::decode_image(corrupted);  // no crash, no hang
    if (result.ok()) {
      // A flip in the entropy data may still decode; the image must at
      // least have the declared geometry.
      EXPECT_EQ(result.image.pixels.size(),
                static_cast<std::size_t>(result.image.width) *
                    static_cast<std::size_t>(result.image.height));
    } else {
      EXPECT_FALSE(result.error().empty());
    }
  }
}

TEST_P(JpegCorruption, TruncatedStreamsFailGracefully) {
  const auto img = jpeg::synthetic_image(24, 24, 6);
  const auto bytes = jpeg::encode_image(img, 50);
  SplitMix64 rng(GetParam() + 17);
  for (int round = 0; round < 30; ++round) {
    const auto keep = rng.next_below(bytes.size());
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    const auto result = jpeg::decode_image(cut);
    (void)result.ok();  // must simply return
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JpegCorruption, ::testing::Values(3u, 11u));

// ---- random process networks: rebalancing invariants ----

class RebalanceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RebalanceFuzz, InvariantsHoldOnRandomNetworks) {
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const int n_procs = 2 + static_cast<int>(rng.next_below(9));
    std::vector<procnet::Process> procs;
    for (int i = 0; i < n_procs; ++i) {
      procnet::Process p;
      p.name = "p" + std::to_string(i);
      p.runtime_cycles = 1 + static_cast<std::int64_t>(rng.next_below(100000));
      p.insts = 1 + static_cast<int>(rng.next_below(200));
      p.data3 = static_cast<int>(rng.next_below(30));
      p.replicable = rng.next_below(5) != 0;
      procs.push_back(p);
    }
    const auto net = procnet::ProcessNetwork::pipeline(procs, 16);
    const int budget = 1 + static_cast<int>(rng.next_below(20));
    for (const auto algo :
         {mapping::RebalanceAlgorithm::kOne, mapping::RebalanceAlgorithm::kTwo,
          mapping::RebalanceAlgorithm::kOpt}) {
      const auto b = mapping::rebalance(net, budget, algo,
                                        mapping::CostParams{});
      ASSERT_TRUE(b.validate(net).ok())
          << mapping::rebalance_name(algo) << " round " << round;
      EXPECT_LE(b.tile_count(), budget);
      const auto eval = mapping::evaluate(net, b, mapping::CostParams{});
      EXPECT_GT(eval.ii_ns, 0.0);
      EXPECT_GT(eval.avg_utilization, 0.0);
      EXPECT_LE(eval.avg_utilization, 1.0 + 1e-9);
      // Pipeline order preserved.
      int expected = 0;
      for (const auto& g : b.groups) {
        for (const int p : g.procs) EXPECT_EQ(p, expected++);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebalanceFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
}  // namespace cgra

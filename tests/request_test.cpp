// The serializable CampaignRequest: versioned wire round-trip, the checksum
// contract (scheduling knobs excluded, result-affecting fields included,
// Baseline normalization), CoreRegistry name resolution, and the
// CampaignPipeline::run(request) entry point producing the same bytes as the
// hand-assembled CampaignSpec path it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "cores/avr/programs.hpp"
#include "hafi/campaign.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/request.hpp"
#include "util/serialize.hpp"

namespace ripple::pipeline {
namespace {

CampaignRequest sample_request() {
  CampaignRequest request;
  request.core = "avr";
  request.workload = "fib";
  request.config.run_cycles = 321;
  request.config.sample = 48;
  request.config.seed = 9;
  request.config.mode = hafi::CampaignMode::Pruned;
  request.config.threads = 3;
  request.config.shard_size = 8;
  request.top_n = 12;
  request.search_depth = 10;
  request.select_cycles = 777;
  request.resume = true;
  return request;
}

TEST(Request, WireRoundTripIsIdentity) {
  const CampaignRequest request = sample_request();
  ByteWriter w;
  write_request(w, request);
  const std::vector<std::uint8_t> bytes = w.take();

  ByteReader r(bytes);
  const CampaignRequest back = read_request(r);
  r.expect_done();
  EXPECT_EQ(back, request);

  // The encoding is canonical: re-encoding the decoded request reproduces
  // the original bytes (this is what makes the frame history replayable).
  ByteWriter w2;
  write_request(w2, back);
  EXPECT_EQ(w2.take(), bytes);
}

TEST(Request, ForeignVersionIsRejected) {
  ByteWriter w;
  w.u32(kRequestVersion + 1); // a future daemon's layout
  w.str("avr");
  const std::vector<std::uint8_t> bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW((void)read_request(r), Error);
}

TEST(Request, VersionOneLayoutWithEngineByteIsRejected) {
  // A complete request in the v1 layout, which carried a DUT-engine byte
  // after shard_size: refused by its version, never misparsed.
  ByteWriter w;
  w.u32(1);
  w.str("avr");
  w.str("fib");
  w.u64(321); // run_cycles
  w.u64(48);  // sample
  w.u64(9);   // seed
  w.u8(static_cast<std::uint8_t>(hafi::CampaignMode::Pruned));
  w.u64(3);   // threads
  w.u64(8);   // shard_size
  w.u8(1);    // dut engine (bitpar)
  w.u32(12);  // top_n
  w.u32(10);  // search_depth
  w.u64(777); // select_cycles
  w.b(true);  // resume
  const std::vector<std::uint8_t> bytes = w.take();
  ByteReader r(bytes);
  try {
    (void)read_request(r);
    FAIL() << "expected a version error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch: got 1, expected 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Request, ChecksumIgnoresSchedulingKnobs) {
  const CampaignRequest request = sample_request();
  const std::uint64_t base = request_checksum(request);

  // threads / shard_size / resume never change the campaign result, so two
  // clients differing only there must share one execution.
  CampaignRequest knobs = request;
  knobs.config.threads = 16;
  knobs.config.shard_size = 64;
  knobs.resume = !request.resume;
  EXPECT_EQ(request_checksum(knobs), base);
}

TEST(Request, ChecksumCoversResultAffectingFields) {
  const CampaignRequest request = sample_request();
  const std::uint64_t base = request_checksum(request);

  const auto differs = [&base](CampaignRequest changed) {
    return request_checksum(changed) != base;
  };
  CampaignRequest c = request;
  c.core = "msp430";
  EXPECT_TRUE(differs(c));
  c = request;
  c.workload = "crc";
  EXPECT_TRUE(differs(c));
  c = request;
  c.config.run_cycles += 1;
  EXPECT_TRUE(differs(c));
  c = request;
  c.config.sample += 1;
  EXPECT_TRUE(differs(c));
  c = request;
  c.config.seed += 1;
  EXPECT_TRUE(differs(c));
  c = request;
  c.config.mode = hafi::CampaignMode::Validate;
  EXPECT_TRUE(differs(c));
  c = request;
  c.top_n += 1;
  EXPECT_TRUE(differs(c));
  c = request;
  c.search_depth += 1;
  EXPECT_TRUE(differs(c));
  c = request;
  c.select_cycles += 1;
  EXPECT_TRUE(differs(c));
}

TEST(Request, BaselineNormalizesMateDerivationAway) {
  // A baseline campaign never derives a MATE set, so top_n/search_depth/
  // select_cycles must not split the dedup key.
  CampaignRequest plain;
  plain.config.run_cycles = 200;
  plain.config.sample = 24;

  CampaignRequest decorated = plain;
  decorated.top_n = 7;
  decorated.search_depth = 12;
  decorated.select_cycles = 500;
  EXPECT_EQ(request_checksum(decorated), request_checksum(plain));

  // ...but in pruned mode those fields select the MATE set and must split.
  CampaignRequest pruned = plain;
  pruned.config.mode = hafi::CampaignMode::Pruned;
  CampaignRequest pruned_topn = pruned;
  pruned_topn.top_n = 7;
  EXPECT_NE(request_checksum(pruned_topn), request_checksum(pruned));
}

TEST(Request, SummaryMentionsCoreAndMode) {
  const std::string s = request_summary(sample_request());
  EXPECT_NE(s.find("avr"), std::string::npos);
  EXPECT_NE(s.find("pruned"), std::string::npos);
}

TEST(CoreRegistryTest, BuiltinsResolve) {
  CoreRegistry& reg = CoreRegistry::global();
  EXPECT_TRUE(reg.contains("avr"));
  EXPECT_TRUE(reg.contains("msp430"));
  EXPECT_FALSE(reg.contains("z80"));

  const CoreRuntime rt = reg.make("avr");
  ASSERT_NE(rt.netlist, nullptr);
  EXPECT_NE(rt.fingerprint, 0u);
  EXPECT_TRUE(static_cast<bool>(rt.batch_factory));
  EXPECT_TRUE(static_cast<bool>(rt.boot));
  EXPECT_EQ(rt.workload, "fib"); // empty workload resolves to the default

  const std::vector<std::string> names = reg.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "avr"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "msp430"), names.end());
}

TEST(CoreRegistryTest, MakerWithoutBatchFactoryOrRecorderIsRejected) {
  // Every target runs on the 64-lane engine and boots its workload for
  // every trace (golden run included), so make() refuses a maker that
  // leaves either piece out, naming the core, before anything runs.
  CoreRegistry reg;
  reg.register_core("no-batch", [](std::string_view workload) {
    CoreRuntime rt = CoreRegistry::global().make("avr", workload);
    rt.batch_factory = nullptr;
    return rt;
  });
  reg.register_core("no-boot", [](std::string_view workload) {
    CoreRuntime rt = CoreRegistry::global().make("avr", workload);
    rt.boot = nullptr;
    return rt;
  });
  for (const std::string name : {"no-batch", "no-boot"}) {
    try {
      (void)reg.make(name);
      FAIL() << "expected Error for " << name;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(CoreRegistryTest, UnknownCoreThrowsWithKnownNames) {
  try {
    (void)CoreRegistry::global().make("z80");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("z80"), std::string::npos);
    EXPECT_NE(what.find("avr"), std::string::npos); // lists registered names
  }
}

TEST(Request, RunMatchesHandAssembledSpec) {
  // The redesigned entry point — run(request) resolving everything through
  // the registry — must produce byte-identical results to the CampaignSpec
  // path callers used to assemble by hand.
  const auto cache_dir =
      std::filesystem::temp_directory_path() /
      ("ripple_request_run_" + std::to_string(::getpid()));
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  CampaignRequest request;
  request.core = "avr";
  request.config.run_cycles = 200;
  request.config.sample = 24;
  request.config.seed = 5;
  request.config.threads = 2;
  request.config.shard_size = 6;

  PipelineConfig config;
  config.cache_dir = cache_dir;
  config.threads = 2;
  CampaignPipeline pipe(config);
  const hafi::CampaignResult from_request = pipe.run(request);

  // Assembled by hand from the AVR maker for a binary's own program: every
  // campaign streams its golden run, so the runtime needs a workload boot.
  CampaignSpec spec;
  spec.runtime = avr_runtime(cores::avr::fib_program(), "fib");
  spec.config = request.config;
  const hafi::CampaignResult from_spec =
      pipe.campaign(std::move(spec), "hand-assembled");

  ByteWriter wa, wb;
  write_campaign_result(wa, from_request);
  write_campaign_result(wb, from_spec);
  EXPECT_EQ(wa.take(), wb.take());

  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
}

} // namespace
} // namespace ripple::pipeline

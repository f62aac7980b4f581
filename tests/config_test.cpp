// Tests for the XML parser and the ADIOS-style runtime configuration loader.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "util/xml.hpp"

namespace cu = canopus::util;
namespace cc = canopus::core;
namespace cs = canopus::storage;

// -------------------------------------------------------------------- XML --

TEST(Xml, ParsesElementsAttributesText) {
  const auto root = cu::parse_xml(
      "<?xml version='1.0'?>\n"
      "<!-- a comment -->\n"
      "<config mode=\"fast\">\n"
      "  <tier name='tmpfs' capacity=\"4MiB\"/>\n"
      "  <note>hello &amp; goodbye</note>\n"
      "</config>");
  EXPECT_EQ(root->name, "config");
  EXPECT_EQ(root->attr("mode"), "fast");
  const auto* tier = root->child("tier");
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->attr("name"), "tmpfs");
  EXPECT_EQ(tier->attr("capacity"), "4MiB");
  const auto* note = root->child("note");
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->text, "hello & goodbye");
  EXPECT_EQ(root->child("missing"), nullptr);
  EXPECT_EQ(root->attr("missing", "dflt"), "dflt");
}

TEST(Xml, NestedAndRepeatedElements) {
  const auto root = cu::parse_xml(
      "<a><b i='1'><c/></b><b i='2'/><d/></a>");
  const auto bs = root->children_named("b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(bs[0]->attr("i"), "1");
  EXPECT_EQ(bs[1]->attr("i"), "2");
  EXPECT_NE(bs[0]->child("c"), nullptr);
}

TEST(Xml, EntitiesDecoded) {
  const auto root = cu::parse_xml("<x v='&lt;&gt;&quot;&apos;&amp;'/>");
  EXPECT_EQ(root->attr("v"), "<>\"'&");
}

TEST(Xml, MalformedInputsThrow) {
  EXPECT_THROW(cu::parse_xml(""), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a></b>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a x=unquoted/>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a/><b/>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a>&unknown;</a>"), canopus::Error);
  EXPECT_THROW(cu::parse_xml("<a><!-- unterminated </a>"), canopus::Error);
}

// ------------------------------------------------------------------ units --

TEST(Units, Sizes) {
  EXPECT_EQ(cc::parse_size("0"), 0u);
  EXPECT_EQ(cc::parse_size("512B"), 512u);
  EXPECT_EQ(cc::parse_size("4KiB"), 4096u);
  EXPECT_EQ(cc::parse_size("2MiB"), 2u << 20);
  EXPECT_EQ(cc::parse_size("1GiB"), 1u << 30);
  EXPECT_EQ(cc::parse_size("3KB"), 3000u);
  EXPECT_EQ(cc::parse_size("1.5KiB"), 1536u);
  EXPECT_THROW(cc::parse_size("10parsecs"), canopus::Error);
  EXPECT_THROW(cc::parse_size("lots"), canopus::Error);
  // No size_t value: the cast would be undefined.
  EXPECT_THROW(cc::parse_size("inf"), canopus::Error);
  EXPECT_THROW(cc::parse_size("1e30TiB"), canopus::Error);
  EXPECT_THROW(cc::parse_size("18446744073709551616"), canopus::Error);
}

TEST(Units, RatesAndDurations) {
  EXPECT_DOUBLE_EQ(cc::parse_rate("250MB/s"), 250e6);
  EXPECT_DOUBLE_EQ(cc::parse_rate("8GiB/s"), 8.0 * (1 << 30));
  EXPECT_THROW(cc::parse_rate("250MB"), canopus::Error);
  EXPECT_THROW(cc::parse_rate("0MB/s"), canopus::Error);
  EXPECT_DOUBLE_EQ(cc::parse_duration("5ms"), 5e-3);
  EXPECT_DOUBLE_EQ(cc::parse_duration("2us"), 2e-6);
  EXPECT_DOUBLE_EQ(cc::parse_duration("1.5s"), 1.5);
  EXPECT_THROW(cc::parse_duration("5min"), canopus::Error);
}

// ----------------------------------------------------------------- config --

namespace {
const char* kSample = R"(<canopus-config>
  <storage policy="fastest-fit">
    <tier preset="tmpfs" capacity="4MiB"/>
    <tier preset="lustre" capacity="1GiB" read-bw="100MB/s" read-latency="8ms"/>
  </storage>
  <refactor levels="4" step="2" codec="sz" error-bound="1e-5"
            estimate="barycentric" priority="gradient" tiered-placement="false"/>
</canopus-config>)";
}

TEST(Config, LoadsTiersAndRefactor) {
  const auto config = cc::load_config(kSample);
  ASSERT_EQ(config.tiers.size(), 2u);
  EXPECT_EQ(config.tiers[0].name, "tmpfs");
  EXPECT_EQ(config.tiers[0].capacity_bytes, 4u << 20);
  EXPECT_EQ(config.tiers[1].name, "lustre");
  // Explicit attributes override the preset envelope...
  EXPECT_DOUBLE_EQ(config.tiers[1].read_bandwidth, 100e6);
  EXPECT_DOUBLE_EQ(config.tiers[1].read_latency, 8e-3);
  // ...while untouched preset fields survive.
  EXPECT_DOUBLE_EQ(config.tiers[1].write_bandwidth,
                   cs::lustre_spec(1).write_bandwidth);

  EXPECT_EQ(config.refactor.levels, 4u);
  EXPECT_EQ(config.refactor.codec, "sz");
  EXPECT_DOUBLE_EQ(config.refactor.error_bound, 1e-5);
  EXPECT_EQ(config.refactor.estimate, cc::EstimateMode::kBarycentric);
  EXPECT_EQ(config.refactor.decimate.priority,
            canopus::mesh::EdgePriority::kGradientWeighted);
  EXPECT_FALSE(config.refactor.tiered_placement);

  std::unique_ptr<canopus::Pipeline> pipeline;
  ASSERT_TRUE(canopus::Pipeline::load(config, &pipeline).ok());
  EXPECT_EQ(pipeline->hierarchy().tier_count(), 2u);
}

TEST(Config, ParsesParallelKnobs) {
  const auto config = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <threads> 4 </threads>
    <pipeline overlap="false" read-ahead="false"/>
  </canopus-config>)");
  EXPECT_EQ(config.options.parallel.threads, 4u);
  EXPECT_FALSE(config.options.parallel.pipeline);
  EXPECT_FALSE(config.options.parallel.read_ahead);
}

TEST(Config, ParallelKnobsDefaultToConcurrent) {
  const auto config = cc::load_config(kSample);
  EXPECT_EQ(config.options.parallel.threads, 0u);  // 0 = global pool
  EXPECT_TRUE(config.options.parallel.pipeline);
  EXPECT_TRUE(config.options.parallel.read_ahead);
}

TEST(Config, ParsesCacheBlock) {
  const auto config = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache budget="8MiB" shards="2" verify-hits="true"/>
  </canopus-config>)");
  ASSERT_TRUE(config.options.cache.has_value());
  EXPECT_EQ(config.options.cache->budget_bytes, 8u << 20);
  EXPECT_EQ(config.options.cache->shards, 2u);
  EXPECT_TRUE(config.options.cache->verify_hits);
  std::unique_ptr<canopus::Pipeline> pipeline;
  ASSERT_TRUE(canopus::Pipeline::load(config, &pipeline).ok());
  ASSERT_NE(pipeline->block_cache(), nullptr);
  EXPECT_EQ(pipeline->block_cache()->budget_bytes(), 8u << 20);
}

TEST(Config, CacheDefaultsOffAndAcceptsBudgetMb) {
  // No <cache> element: uncached hierarchy, optional stays empty.
  EXPECT_FALSE(cc::load_config(kSample).options.cache.has_value());
  std::unique_ptr<canopus::Pipeline> uncached;
  ASSERT_TRUE(
      canopus::Pipeline::load(cc::load_config(kSample), &uncached).ok());
  EXPECT_EQ(uncached->block_cache(), nullptr);
  const auto config = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache budget-mb="16"/>
  </canopus-config>)");
  ASSERT_TRUE(config.options.cache.has_value());
  EXPECT_EQ(config.options.cache->budget_bytes, 16u << 20);
  EXPECT_FALSE(config.options.cache->verify_hits);
}

TEST(Config, InvalidCacheBlockThrows) {
  // Zero shards.
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache budget="1MiB" shards="0"/>
  </canopus-config>)"),
               canopus::Error);
  // Explicit zero budget.
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache budget="0"/>
  </canopus-config>)"),
               canopus::Error);
  // Bare <cache/> keeps the CacheConfig defaults (64 MiB) rather than throw.
  const auto bare = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <cache/>
  </canopus-config>)");
  ASSERT_TRUE(bare.options.cache.has_value());
  EXPECT_EQ(bare.options.cache->budget_bytes,
            canopus::cache::CacheConfig{}.budget_bytes);
}

TEST(Config, EmptyThreadsElementThrows) {
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <threads></threads>
  </canopus-config>)"),
               canopus::Error);
}

TEST(Config, CustomTierWithoutPreset) {
  const auto config = cc::load_config(R"(<canopus-config>
    <storage>
      <tier name="archive" capacity="8GiB" read-bw="40MB/s" write-bw="40MB/s"
            read-latency="50ms" write-latency="50ms"/>
    </storage>
  </canopus-config>)");
  ASSERT_EQ(config.tiers.size(), 1u);
  EXPECT_EQ(config.tiers[0].name, "archive");
  EXPECT_DOUBLE_EQ(config.tiers[0].read_bandwidth, 40e6);
  // Refactor section absent: defaults apply.
  EXPECT_EQ(config.refactor.levels, 3u);
  EXPECT_EQ(config.refactor.codec, "zfp");
}

TEST(Config, FileBackendRequiresRoot) {
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier name="x" capacity="1MiB" backend="file"/></storage>
  </canopus-config>)"),
               canopus::Error);
}

TEST(Config, InvalidInputsThrow) {
  EXPECT_THROW(cc::load_config("<wrong-root/>"), canopus::Error);
  EXPECT_THROW(cc::load_config("<canopus-config/>"), canopus::Error);
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="floppy" capacity="1MiB"/></storage>
  </canopus-config>)"),
               canopus::Error);
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage policy="best-effort"><tier preset="tmpfs" capacity="1MiB"/></storage>
  </canopus-config>)"),
               canopus::Error);
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier capacity="1MiB"/></storage>
  </canopus-config>)"),
               canopus::Error);
}

TEST(Config, LoadFromFile) {
  namespace fs = std::filesystem;
  const auto path = (fs::temp_directory_path() / "canopus_config_test.xml").string();
  {
    std::ofstream f(path);
    f << kSample;
  }
  const auto config = cc::load_config_file(path);
  EXPECT_EQ(config.tiers.size(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(cc::load_config_file("/does/not/exist.xml"), canopus::Error);
}

// -------------------------------------------------- numeric error context --

namespace {
/// The message load_config throws for `xml`, "" when it does not throw.
std::string config_error(const std::string& xml) {
  try {
    cc::load_config(xml);
  } catch (const canopus::Error& e) {
    return e.what();
  }
  return {};
}

std::string wrap(const std::string& body,
                 const std::string& storage_attrs = "") {
  return "<canopus-config>\n  <storage" + storage_attrs +
         "><tier preset=\"tmpfs\" capacity=\"4MiB\"/></storage>\n" + body +
         "\n</canopus-config>";
}
}  // namespace

TEST(Config, MalformedNumericsNameTheirLocation) {
  // Regression: these used to surface as bare std::invalid_argument /
  // std::out_of_range from std::stoul with no hint of which attribute was
  // wrong. Each diagnostic must name the element/attribute and the offense.
  const std::string not_int = config_error(wrap("<refactor levels=\"abc\"/>"));
  EXPECT_NE(not_int.find("levels"), std::string::npos) << not_int;
  EXPECT_NE(not_int.find("not an integer"), std::string::npos) << not_int;

  const std::string junk = config_error(wrap("<refactor levels=\"3abc\"/>"));
  EXPECT_NE(junk.find("levels"), std::string::npos) << junk;
  EXPECT_NE(junk.find("not an integer"), std::string::npos) << junk;

  const std::string negative = config_error(wrap("<faults seed=\"-7\"/>"));
  EXPECT_NE(negative.find("seed"), std::string::npos) << negative;
  EXPECT_NE(negative.find("non-negative"), std::string::npos) << negative;

  const std::string overflow =
      config_error(wrap("<faults seed=\"99999999999999999999999999\"/>"));
  EXPECT_NE(overflow.find("seed"), std::string::npos) << overflow;
  EXPECT_NE(overflow.find("overflow"), std::string::npos) << overflow;

  const std::string bad_double =
      config_error(wrap("<retry multiplier=\"fast\"/>"));
  EXPECT_NE(bad_double.find("multiplier"), std::string::npos) << bad_double;

  const std::string bad_threads = config_error(wrap("<threads>4x</threads>"));
  EXPECT_NE(bad_threads.find("threads"), std::string::npos) << bad_threads;

  const std::string attempts_overflow =
      config_error(wrap("<retry max-attempts=\"4294967296\"/>"));
  EXPECT_NE(attempts_overflow.find("max-attempts"), std::string::npos)
      << attempts_overflow;

  const std::string bad_buckets =
      config_error(wrap("<observability histogram-buckets=\"many\"/>"));
  EXPECT_NE(bad_buckets.find("histogram-buckets"), std::string::npos)
      << bad_buckets;

  const std::string neg_bound =
      config_error(wrap("<refactor error-bound=\"-1e-4\"/>"));
  EXPECT_NE(neg_bound.find("error-bound"), std::string::npos) << neg_bound;
}

TEST(Config, UnrepresentableTierQuantitiesNameTheAttribute) {
  // Each of these used to load: the capacity as a 0-byte tier, the rest as
  // an infinite bandwidth or latency.
  struct Case {
    std::string tier;  // attributes after preset="tmpfs"
    std::string attr;
  };
  const std::vector<Case> cases = {
      {"capacity=\"inf\"", "capacity"},
      {"capacity=\"1e30TiB\"", "capacity"},
      {"capacity=\"4MiB\" read-bw=\"infGB/s\"", "read-bw"},
      {"capacity=\"4MiB\" write-bw=\"infGB/s\"", "write-bw"},
      {"capacity=\"4MiB\" read-latency=\"infs\"", "read-latency"},
      {"capacity=\"4MiB\" write-latency=\"infs\"", "write-latency"},
  };
  namespace fs = std::filesystem;
  const auto path =
      (fs::temp_directory_path() / "canopus_bad_tier_test.xml").string();
  for (const auto& c : cases) {
    const std::string xml = "<canopus-config><storage><tier preset=\"tmpfs\" " +
                            c.tier + "/></storage></canopus-config>";
    const std::string what = config_error(xml);
    EXPECT_FALSE(what.empty()) << c.tier << " was accepted";
    EXPECT_NE(what.find("'" + c.attr + "'"), std::string::npos)
        << c.tier << ": " << what;
    {
      std::ofstream f(path);
      f << xml;
    }
    std::unique_ptr<canopus::Pipeline> pipeline;
    const canopus::Status st = canopus::Pipeline::load(path, &pipeline);
    EXPECT_EQ(st.code, canopus::StatusCode::kInvalidArgument)
        << c.tier << ": " << st.to_string();
    EXPECT_EQ(pipeline, nullptr) << c.tier;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ serve --

TEST(Config, ParsesServeBlock) {
  const auto config = cc::load_config(wrap(
      "<serve workers=\"4\" queue-limit=\"64\" deadline-default=\"250ms\""
      " age-boost=\"2.5\"/>"));
  ASSERT_TRUE(config.options.serve.has_value());
  EXPECT_EQ(config.options.serve->workers, 4u);
  EXPECT_EQ(config.options.serve->queue_limit, 64u);
  EXPECT_DOUBLE_EQ(config.options.serve->default_deadline_seconds, 0.25);
  EXPECT_DOUBLE_EQ(config.options.serve->age_boost, 2.5);
}

TEST(Config, ServeDefaultsAndValidation) {
  // No <serve> element: the optional stays empty (scheduler defaults apply
  // lazily at first use).
  EXPECT_FALSE(cc::load_config(kSample).options.serve.has_value());
  // Bare <serve/> opts in with the ServeConfig defaults.
  const auto bare = cc::load_config(wrap("<serve/>"));
  ASSERT_TRUE(bare.options.serve.has_value());
  EXPECT_EQ(bare.options.serve->workers,
            canopus::serve::ServeConfig{}.workers);

  EXPECT_THROW(cc::load_config(wrap("<serve workers=\"0\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<serve queue-limit=\"0\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<serve deadline-default=\"0ms\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<serve age-boost=\"-1\"/>")),
               canopus::Error);
  const std::string bad_workers =
      config_error(wrap("<serve workers=\"two\"/>"));
  EXPECT_NE(bad_workers.find("workers"), std::string::npos) << bad_workers;
}

// ----------------------------------------------------------------- fabric --

TEST(Config, ParsesFabricBlock) {
  const auto config = cc::load_config(wrap(
      "<fabric nodes=\"4\" partition=\"hash\" remote-us=\"250\""
      " remote-bw=\"2GB/s\"/>"));
  ASSERT_TRUE(config.fabric.has_value());
  EXPECT_EQ(config.fabric->nodes, 4u);
  EXPECT_EQ(config.fabric->partition, canopus::fabric::Partition::kHash);
  EXPECT_DOUBLE_EQ(config.fabric->remote_latency_seconds, 250e-6);
  EXPECT_DOUBLE_EQ(config.fabric->remote_bandwidth, 2e9);
}

TEST(Config, FabricDefaultsAndValidation) {
  // No <fabric> element: single-node serving, the optional stays empty.
  EXPECT_FALSE(cc::load_config(kSample).fabric.has_value());
  // Bare <fabric/> opts in with the defaults (range partition, 1 node).
  const auto bare = cc::load_config(wrap("<fabric/>"));
  ASSERT_TRUE(bare.fabric.has_value());
  EXPECT_EQ(bare.fabric->nodes, 1u);
  EXPECT_EQ(bare.fabric->partition, canopus::fabric::Partition::kMortonRange);
  // "range" and "morton-range" are synonyms.
  EXPECT_EQ(cc::load_config(wrap("<fabric partition=\"range\"/>"))
                .fabric->partition,
            canopus::fabric::Partition::kMortonRange);
  EXPECT_EQ(cc::load_config(wrap("<fabric partition=\"morton-range\"/>"))
                .fabric->partition,
            canopus::fabric::Partition::kMortonRange);

  EXPECT_THROW(cc::load_config(wrap("<fabric nodes=\"0\"/>")), canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<fabric partition=\"round-robin\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<fabric remote-us=\"-5\"/>")),
               canopus::Error);
  EXPECT_THROW(cc::load_config(wrap("<fabric remote-bw=\"0MB/s\"/>")),
               canopus::Error);
  // The fabric does not demote: eviction watermarks fail the load, naming
  // the element and the attribute, instead of loading and doing nothing.
  const std::string watermark =
      config_error(wrap("<fabric eviction-high=\"0.9\"/>"));
  EXPECT_NE(watermark.find("<fabric> has no attribute 'eviction-high'"),
            std::string::npos)
      << watermark;
  const std::string bad_nodes = config_error(wrap("<fabric nodes=\"many\"/>"));
  EXPECT_NE(bad_nodes.find("nodes"), std::string::npos) << bad_nodes;
}

// -------------------------------------------------------- unknown names --

TEST(Config, EveryDocumentedNameLoads) {
  // Each element's allow-list holds every attribute and child element
  // core/config.hpp documents; anything else fails the load (see
  // BadDocumentsNameTheKnobAndLoadAsInvalidArgument).
  const auto config = cc::load_config(R"(<canopus-config>
    <storage policy="fastest-fit">
      <tier preset="tmpfs" capacity="4MiB"/>
      <tier name="archive" preset="lustre" capacity="1GiB" read-bw="40MB/s"
            write-bw="40MB/s" read-latency="5ms" write-latency="5ms"
            backend="file" root="archive-dir"/>
    </storage>
    <refactor levels="3" step="2" codec="zfp" error-bound="1e-6"
              estimate="uniform" priority="shortest" tiered-placement="true"/>
    <threads>2</threads>
    <pipeline overlap="true" read-ahead="false"/>
    <faults seed="7">
      <tier name="archive" read-error="0.1" write-error="0" corrupt="0"
            latency-spike="0" spike-duration="1ms"/>
    </faults>
    <retry max-attempts="3" backoff="1ms" multiplier="2"/>
    <cache budget="1MiB" budget-mb="2" shards="2" verify-hits="true"/>
    <observability enabled="false" trace="t.json" histogram-buckets="16"/>
    <io depth="2"/>
    <serve workers="2" queue-limit="8" deadline-default="50ms" age-boost="1"/>
    <fabric nodes="2" partition="hash" remote-us="10" remote-bw="1GB/s"/>
    <tiering enabled="false" half-life="1s" promote-above="4" demote-below="1"
             interval="10ms" max-moves="2" cooldown-ticks="1" reserve="0.1"/>
  </canopus-config>)");
  ASSERT_EQ(config.tiers.size(), 2u);
  EXPECT_EQ(config.tiers[1].root_dir, "archive-dir");
  EXPECT_EQ(config.faults.size(), 1u);
  EXPECT_EQ(config.options.io.depth, 2u);
  ASSERT_TRUE(config.options.tiering.has_value());
  EXPECT_EQ(config.options.tiering->cooldown_ticks, 1u);
}

// --------------------------------------------------------------------- io --

TEST(Config, ParsesIoBlock) {
  const auto config = cc::load_config(wrap("<io depth=\"8\"/>"));
  EXPECT_EQ(config.options.io.depth, 8u);
  EXPECT_TRUE(config.options.io.enabled());
}

TEST(Config, IoDefaultsAndValidation) {
  // No <io> element: readers stay blocking.
  EXPECT_FALSE(cc::load_config(kSample).options.io.enabled());
  // Bare <io/> keeps the defaults — depth 1 keeps the engine off.
  const auto bare = cc::load_config(wrap("<io/>"));
  EXPECT_EQ(bare.options.io.depth, 1u);
  EXPECT_FALSE(bare.options.io.enabled());

  EXPECT_THROW(cc::load_config(wrap("<io depth=\"0\"/>")), canopus::Error);
  const std::string bad_depth = config_error(wrap("<io depth=\"eight\"/>"));
  EXPECT_NE(bad_depth.find("depth"), std::string::npos) << bad_depth;
}

// ------------------------------------------------------ validated once --

TEST(Config, BadDocumentsNameTheKnobAndLoadAsInvalidArgument) {
  // Each Options-level rule lives only in Options::validate(), which the
  // loader runs once: the message names the knob, and Pipeline::load reports
  // every document it cannot use as kInvalidArgument — kNotFound is for a
  // file that cannot be read.
  struct Case {
    std::string body;  // elements after <storage>
    std::string knob;  // "" when the document is not even well-formed
    std::string storage_attrs = "";  // attributes of <storage>
  };
  const std::vector<Case> cases = {
      {"<refactor levels=", ""},
      {"<retry max-attempts=\"0\"/>", "retry.max_attempts"},
      {"<retry backoff=\"infs\"/>", "retry.backoff_seconds"},
      {"<retry multiplier=\"0.5\"/>", "retry.backoff_multiplier"},
      {"<cache budget=\"0\"/>", "cache.budget_bytes"},
      {"<cache budget-mb=\"0\"/>", "cache.budget_bytes"},
      {"<cache shards=\"0\"/>", "cache.shards"},
      {"<observability histogram-buckets=\"1\"/>",
       "observability.histogram_buckets"},
      {"<io depth=\"0\"/>", "io.depth"},
      // Retired: reads are issued one at a time, so there is no batch and no
      // per-op deadline to record.
      {"<io batch=\"4\"/>", "'batch'"},
      {"<io deadline=\"5ms\"/>", "'deadline'"},
      {"<serve workers=\"0\"/>", "serve.workers"},
      {"<serve queue-limit=\"0\"/>", "serve.queue_limit"},
      {"<serve deadline-default=\"0ms\"/>", "serve.default_deadline_seconds"},
      {"<serve age-boost=\"-1\"/>", "serve.age_boost"},
      {"<tiering half-life=\"0ms\"/>", "tiering.half_life_seconds"},
      {"<tiering promote-above=\"-1\"/>", "tiering.promote_threshold"},
      {"<tiering demote-below=\"-1\"/>", "tiering.demote_threshold"},
      {"<tiering demote-below=\"4\" promote-above=\"4\"/>",
       "tiering.demote_threshold"},
      {"<tiering interval=\"0ms\"/>", "tiering.interval_seconds"},
      {"<tiering max-moves=\"0\"/>", "tiering.max_moves_per_tick"},
      {"<tiering reserve=\"1\"/>", "tiering.reserve"},
      {"<fabric eviction-high=\"0.9\"/>", "eviction-high"},
      {"<fabric eviction-low=\"0.75\"/>", "eviction-low"},
      {"<fabric eviction-interval=\"10ms\"/>", "eviction-interval"},
      // Retired placement policies: placement is fastest-fit only.
      {"", "slowest-only", " policy=\"slowest-only\""},
      {"", "round-robin", " policy=\"round-robin\""},
      // Names the loader does not read. Each used to load: a misspelt
      // attribute left its knob at the default (a 64 MiB cache, tiering
      // off) and an unknown element was skipped.
      {"<cache budjet=\"1MiB\"/>", "<cache> has no attribute 'budjet'"},
      {"<tiering enabeld=\"true\"/>", "<tiering> has no attribute 'enabeld'"},
      {"<chache budget=\"1MiB\"/>", "<canopus-config> has no element <chache>"},
      {"<refactor tiered_placement=\"false\"/>",
       "<refactor> has no attribute 'tiered_placement'"},
      {"<io depth=\"2\"><lanes/></io>", "<io> has no element <lanes>"},
      {"<faults><tier name=\"tmpfs\" read-errors=\"0.5\"/></faults>",
       "<tier> has no attribute 'read-errors'"},
      {"", "<storage> has no attribute 'polcy'", " polcy=\"fastest-fit\""},
  };
  namespace fs = std::filesystem;
  const auto path =
      (fs::temp_directory_path() / "canopus_bad_config_test.xml").string();
  for (const auto& c : cases) {
    const std::string xml = wrap(c.body, c.storage_attrs);
    const std::string what = config_error(xml);
    EXPECT_FALSE(what.empty()) << c.body << " was accepted";
    EXPECT_NE(what.find(c.knob), std::string::npos) << c.body << ": " << what;
    {
      std::ofstream f(path);
      f << xml;
    }
    std::unique_ptr<canopus::Pipeline> pipeline;
    const canopus::Status st = canopus::Pipeline::load(path, &pipeline);
    EXPECT_EQ(st.code, canopus::StatusCode::kInvalidArgument)
        << c.body << ": " << st.to_string();
    EXPECT_EQ(pipeline, nullptr) << c.body;
  }
  std::remove(path.c_str());
  std::unique_ptr<canopus::Pipeline> pipeline;
  EXPECT_EQ(canopus::Pipeline::load(path, &pipeline).code,
            canopus::StatusCode::kNotFound);
}

#include "core/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/assert.hpp"
#include "util/xml.hpp"

namespace canopus::core {

namespace {

/// Splits "12.5MiB" into (12.5, "MiB").
std::pair<double, std::string> split_number_unit(const std::string& text) {
  CANOPUS_CHECK(!text.empty(), "empty quantity");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  CANOPUS_CHECK(end != text.c_str(), "quantity has no number: " + text);
  std::string unit(end);
  while (!unit.empty() && std::isspace(static_cast<unsigned char>(unit.front()))) {
    unit.erase(unit.begin());
  }
  return {value, unit};
}

double size_unit_factor(const std::string& unit) {
  if (unit.empty() || unit == "B") return 1.0;
  if (unit == "KiB") return 1024.0;
  if (unit == "MiB") return 1024.0 * 1024.0;
  if (unit == "GiB") return 1024.0 * 1024.0 * 1024.0;
  if (unit == "TiB") return 1024.0 * 1024.0 * 1024.0 * 1024.0;
  if (unit == "KB") return 1e3;
  if (unit == "MB") return 1e6;
  if (unit == "GB") return 1e9;
  if (unit == "TB") return 1e12;
  throw Error("unknown size unit: " + unit);
}

storage::TierSpec preset_spec(const std::string& preset, std::size_t capacity) {
  if (preset == "tmpfs") return storage::tmpfs_spec(capacity);
  if (preset == "nvram") return storage::nvram_spec(capacity);
  if (preset == "ssd") return storage::ssd_spec(capacity);
  if (preset == "burst-buffer") return storage::burst_buffer_spec(capacity);
  if (preset == "lustre") return storage::lustre_spec(capacity);
  if (preset == "campaign") return storage::campaign_spec(capacity);
  throw Error("unknown tier preset: " + preset);
}

mesh::EdgePriority parse_priority(const std::string& name) {
  if (name == "shortest") return mesh::EdgePriority::kShortestFirst;
  if (name == "random") return mesh::EdgePriority::kRandom;
  if (name == "gradient") return mesh::EdgePriority::kGradientWeighted;
  throw Error("unknown edge priority: " + name);
}

bool parse_bool(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw Error("not a boolean: " + text);
}

/// Contextual numeric parsing for XML attributes. Bare std::stoul/stod would
/// let malformed values escape as raw std::invalid_argument/out_of_range
/// with no hint of which element was wrong; these helpers throw
/// canopus::Error naming the offending element/attribute (`what`, e.g.
/// "<refactor> attribute 'levels'") and reject negative and overflowing
/// values outright.
std::string trimmed(const std::string& text) {
  auto begin = text.begin(), end = text.end();
  while (begin != end && std::isspace(static_cast<unsigned char>(*begin))) ++begin;
  while (end != begin && std::isspace(static_cast<unsigned char>(*(end - 1)))) --end;
  return std::string(begin, end);
}

std::uint64_t parse_uint(const std::string& text, const std::string& what) {
  const std::string t = trimmed(text);
  CANOPUS_CHECK(!t.empty(), what + " must not be empty");
  CANOPUS_CHECK(t[0] != '-', what + " must be non-negative: '" + text + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
  CANOPUS_CHECK(end != t.c_str() && *end == '\0',
                what + " is not an integer: '" + text + "'");
  CANOPUS_CHECK(errno != ERANGE &&
                    v <= std::numeric_limits<std::uint64_t>::max(),
                what + " overflows: '" + text + "'");
  return static_cast<std::uint64_t>(v);
}

double parse_double(const std::string& text, const std::string& what) {
  const std::string t = trimmed(text);
  CANOPUS_CHECK(!t.empty(), what + " must not be empty");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  CANOPUS_CHECK(end != t.c_str() && *end == '\0',
                what + " is not a number: '" + text + "'");
  CANOPUS_CHECK(errno != ERANGE && std::isfinite(v),
                what + " overflows or is not finite: '" + text + "'");
  return v;
}

/// Rejects an attribute or child element of `node` that the loader does not
/// read, naming both: a misspelt knob fails the load instead of leaving its
/// default in place, and so does a retired one.
void check_names(const util::XmlNode& node,
                 std::initializer_list<std::string_view> attributes,
                 std::initializer_list<std::string_view> elements = {}) {
  const auto known = [](std::initializer_list<std::string_view> names,
                        const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const auto& [name, value] : node.attributes) {
    CANOPUS_CHECK(known(attributes, name),
                  "<" + node.name + "> has no attribute '" + name + "'");
  }
  for (const auto& child : node.children) {
    CANOPUS_CHECK(known(elements, child->name),
                  "<" + node.name + "> has no element <" + child->name + ">");
  }
}

double parse_probability(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double p = std::strtod(text.c_str(), &end);
  CANOPUS_CHECK(end != text.c_str() && *end == '\0',
                what + " is not a number: " + text);
  CANOPUS_CHECK(p >= 0.0 && p <= 1.0, what + " must be in [0, 1]: " + text);
  return p;
}

}  // namespace

std::size_t parse_size(const std::string& text) {
  const auto [value, unit] = split_number_unit(text);
  CANOPUS_CHECK(value >= 0.0, "negative size: " + text);
  const double bytes = value * size_unit_factor(unit);
  // Casting inf, or anything at or past 2^64, to size_t is undefined.
  constexpr int kBits = std::numeric_limits<std::size_t>::digits;
  CANOPUS_CHECK(std::isfinite(bytes) && bytes < std::ldexp(1.0, kBits),
                "size is not representable in " + std::to_string(kBits) +
                    " bits: " + text);
  return static_cast<std::size_t>(bytes);
}

double parse_rate(const std::string& text) {
  const auto [value, unit] = split_number_unit(text);
  CANOPUS_CHECK(value > 0.0, "rate must be positive: " + text);
  CANOPUS_CHECK(unit.size() > 2 && unit.substr(unit.size() - 2) == "/s",
                "rate must end in /s: " + text);
  return value * size_unit_factor(unit.substr(0, unit.size() - 2));
}

double parse_duration(const std::string& text) {
  const auto [value, unit] = split_number_unit(text);
  CANOPUS_CHECK(value >= 0.0, "negative duration: " + text);
  if (unit == "s") return value;
  if (unit == "ms") return value * 1e-3;
  if (unit == "us") return value * 1e-6;
  if (unit == "ns") return value * 1e-9;
  throw Error("unknown duration unit: " + unit);
}

RuntimeConfig load_config(const std::string& xml_text) {
  const auto root = util::parse_xml(xml_text);
  CANOPUS_CHECK(root->name == "canopus-config",
                "root element must be <canopus-config>, got <" + root->name + ">");
  check_names(*root, {},
              {"storage", "refactor", "threads", "pipeline", "faults", "retry",
               "cache", "observability", "io", "serve", "fabric", "tiering"});
  RuntimeConfig config;

  const auto* storage_node = root->child("storage");
  CANOPUS_CHECK(storage_node != nullptr, "missing <storage> section");
  check_names(*storage_node, {"policy"}, {"tier"});
  {
    // Placement is fastest tier with room. The retired policies fail by name
    // rather than load as something else; a single-tier baseline is a
    // one-tier <storage>.
    const auto policy = storage_node->attr("policy", "fastest-fit");
    if (policy == "slowest-only" || policy == "round-robin") {
      throw Error("<storage> policy '" + policy +
                  "' is no longer supported: placement is fastest-fit");
    }
    CANOPUS_CHECK(policy == "fastest-fit",
                  "unknown placement policy: " + policy);
  }
  // An infinite bandwidth or latency would zero or poison every simulated
  // cost on the tier.
  const auto finite = [](double value, const char* attr) {
    CANOPUS_CHECK(std::isfinite(value), std::string("<tier> attribute '") +
                                            attr + "' must be finite");
    return value;
  };
  for (const auto* tier : storage_node->children_named("tier")) {
    check_names(*tier, {"capacity", "preset", "name", "read-bw", "write-bw",
                        "read-latency", "write-latency", "backend", "root"});
    CANOPUS_CHECK(tier->has_attr("capacity"),
                  "<tier> needs a capacity attribute");
    std::size_t capacity = 0;
    try {
      capacity = parse_size(tier->attr("capacity"));
    } catch (const Error& e) {
      throw Error(std::string("<tier> attribute 'capacity': ") + e.what());
    }
    storage::TierSpec spec;
    if (tier->has_attr("preset")) {
      spec = preset_spec(tier->attr("preset"), capacity);
    } else {
      CANOPUS_CHECK(tier->has_attr("name"), "<tier> needs a preset or a name");
      spec.name = tier->attr("name");
      spec.capacity_bytes = capacity;
    }
    if (tier->has_attr("name")) spec.name = tier->attr("name");
    if (tier->has_attr("read-bw")) {
      spec.read_bandwidth =
          finite(parse_rate(tier->attr("read-bw")), "read-bw");
    }
    if (tier->has_attr("write-bw")) {
      spec.write_bandwidth =
          finite(parse_rate(tier->attr("write-bw")), "write-bw");
    }
    if (tier->has_attr("read-latency")) {
      spec.read_latency =
          finite(parse_duration(tier->attr("read-latency")), "read-latency");
    }
    if (tier->has_attr("write-latency")) {
      spec.write_latency =
          finite(parse_duration(tier->attr("write-latency")), "write-latency");
    }
    if (tier->has_attr("backend")) {
      const auto backend = tier->attr("backend");
      if (backend == "memory") {
        spec.backend = storage::Backend::kMemory;
      } else if (backend == "file") {
        spec.backend = storage::Backend::kFile;
        spec.root_dir = tier->attr("root");
        CANOPUS_CHECK(!spec.root_dir.empty(), "file tier needs root attribute");
      } else {
        throw Error("unknown tier backend: " + backend);
      }
    }
    config.tiers.push_back(std::move(spec));
  }
  CANOPUS_CHECK(!config.tiers.empty(), "<storage> lists no tiers");

  if (const auto* refactor = root->child("refactor")) {
    check_names(*refactor, {"levels", "step", "codec", "error-bound",
                            "estimate", "priority", "tiered-placement"});
    auto& rc = config.refactor;
    if (refactor->has_attr("levels")) {
      rc.levels = static_cast<std::size_t>(parse_uint(
          refactor->attr("levels"), "<refactor> attribute 'levels'"));
      CANOPUS_CHECK(rc.levels >= 1, "levels must be >= 1");
    }
    if (refactor->has_attr("step")) {
      rc.step = parse_double(refactor->attr("step"), "<refactor> attribute 'step'");
      CANOPUS_CHECK(rc.step >= 1.0, "step must be >= 1");
    }
    if (refactor->has_attr("codec")) rc.codec = refactor->attr("codec");
    if (refactor->has_attr("error-bound")) {
      rc.error_bound = parse_double(refactor->attr("error-bound"),
                                    "<refactor> attribute 'error-bound'");
      CANOPUS_CHECK(rc.error_bound >= 0.0,
                    "<refactor> attribute 'error-bound' must be >= 0");
    }
    if (refactor->has_attr("estimate")) {
      rc.estimate = estimate_mode_from_string(refactor->attr("estimate"));
    }
    if (refactor->has_attr("priority")) {
      rc.decimate.priority = parse_priority(refactor->attr("priority"));
    }
    if (refactor->has_attr("tiered-placement")) {
      rc.tiered_placement = parse_bool(refactor->attr("tiered-placement"));
    }
  }

  if (const auto* threads = root->child("threads")) {
    check_names(*threads, {});
    // Worker count as text content: <threads>4</threads> (0 = hardware).
    std::string text = threads->text;
    text.erase(std::remove_if(text.begin(), text.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               text.end());
    CANOPUS_CHECK(!text.empty(), "<threads> needs a worker count");
    config.options.parallel.threads =
        static_cast<std::size_t>(parse_uint(text, "<threads> worker count"));
  }

  if (const auto* pipeline = root->child("pipeline")) {
    check_names(*pipeline, {"overlap", "read-ahead"});
    auto& pc = config.options.parallel;
    if (pipeline->has_attr("overlap")) {
      pc.pipeline = parse_bool(pipeline->attr("overlap"));
    }
    if (pipeline->has_attr("read-ahead")) {
      pc.read_ahead = parse_bool(pipeline->attr("read-ahead"));
    }
  }

  if (const auto* faults = root->child("faults")) {
    check_names(*faults, {"seed"}, {"tier"});
    if (faults->has_attr("seed")) {
      config.fault_seed =
          parse_uint(faults->attr("seed"), "<faults> attribute 'seed'");
    }
    for (const auto* tier : faults->children_named("tier")) {
      check_names(*tier, {"name", "read-error", "write-error", "corrupt",
                          "latency-spike", "spike-duration"});
      CANOPUS_CHECK(tier->has_attr("name"),
                    "<faults><tier> needs a name attribute");
      RuntimeConfig::TierFaults tf;
      tf.tier_name = tier->attr("name");
      const bool known = std::any_of(
          config.tiers.begin(), config.tiers.end(),
          [&](const storage::TierSpec& s) { return s.name == tf.tier_name; });
      CANOPUS_CHECK(known, "<faults> names unknown tier '" + tf.tier_name + "'");
      auto& p = tf.profile;
      if (tier->has_attr("read-error")) {
        p.read_error = parse_probability(tier->attr("read-error"), "read-error");
      }
      if (tier->has_attr("write-error")) {
        p.write_error =
            parse_probability(tier->attr("write-error"), "write-error");
      }
      if (tier->has_attr("corrupt")) {
        p.corrupt = parse_probability(tier->attr("corrupt"), "corrupt");
      }
      if (tier->has_attr("latency-spike")) {
        p.latency_spike =
            parse_probability(tier->attr("latency-spike"), "latency-spike");
      }
      if (tier->has_attr("spike-duration")) {
        p.spike_seconds = parse_duration(tier->attr("spike-duration"));
      }
      config.faults.push_back(std::move(tf));
    }
  }

  if (const auto* retry = root->child("retry")) {
    check_names(*retry, {"max-attempts", "backoff", "multiplier"});
    storage::RetryPolicy policy;
    if (retry->has_attr("max-attempts")) {
      const std::uint64_t attempts = parse_uint(
          retry->attr("max-attempts"), "<retry> attribute 'max-attempts'");
      CANOPUS_CHECK(attempts <= std::numeric_limits<std::uint32_t>::max(),
                    "<retry> attribute 'max-attempts' overflows: '" +
                        retry->attr("max-attempts") + "'");
      policy.max_attempts = static_cast<std::uint32_t>(attempts);
    }
    if (retry->has_attr("backoff")) {
      policy.backoff_seconds = parse_duration(retry->attr("backoff"));
    }
    if (retry->has_attr("multiplier")) {
      policy.backoff_multiplier = parse_double(
          retry->attr("multiplier"), "<retry> attribute 'multiplier'");
    }
    config.options.retry = policy;
  }

  if (const auto* cache_node = root->child("cache")) {
    check_names(*cache_node, {"budget", "budget-mb", "shards", "verify-hits"});
    canopus::cache::CacheConfig cc;
    if (cache_node->has_attr("budget")) {
      cc.budget_bytes = parse_size(cache_node->attr("budget"));
    }
    if (cache_node->has_attr("budget-mb")) {
      const std::uint64_t mb = parse_uint(cache_node->attr("budget-mb"),
                                          "<cache> attribute 'budget-mb'");
      CANOPUS_CHECK(mb <= (std::numeric_limits<std::uint64_t>::max() >> 20),
                    "<cache> attribute 'budget-mb' overflows: '" +
                        cache_node->attr("budget-mb") + "'");
      cc.budget_bytes = static_cast<std::size_t>(mb << 20);
    }
    if (cache_node->has_attr("shards")) {
      cc.shards = static_cast<std::size_t>(
          parse_uint(cache_node->attr("shards"), "<cache> attribute 'shards'"));
    }
    if (cache_node->has_attr("verify-hits")) {
      cc.verify_hits = parse_bool(cache_node->attr("verify-hits"));
    }
    config.options.cache = cc;
  }

  if (const auto* observability = root->child("observability")) {
    check_names(*observability, {"enabled", "trace", "histogram-buckets"});
    obs::ObservabilityOptions oo;
    if (observability->has_attr("enabled")) {
      oo.enabled = parse_bool(observability->attr("enabled"));
    } else {
      // Presence of the element without the attribute means "turn it on".
      oo.enabled = true;
    }
    if (observability->has_attr("trace")) {
      oo.trace_path = observability->attr("trace");
    }
    if (observability->has_attr("histogram-buckets")) {
      oo.histogram_buckets = static_cast<std::size_t>(
          parse_uint(observability->attr("histogram-buckets"),
                     "<observability> attribute 'histogram-buckets'"));
    }
    config.options.observability = oo;
  }

  if (const auto* io_node = root->child("io")) {
    check_names(*io_node, {"depth"});
    if (io_node->has_attr("depth")) {
      config.options.io.depth = static_cast<std::uint32_t>(
          parse_uint(io_node->attr("depth"), "<io> attribute 'depth'"));
    }
  }

  if (const auto* serve_node = root->child("serve")) {
    check_names(*serve_node,
                {"workers", "queue-limit", "deadline-default", "age-boost"});
    serve::ServeConfig sc;
    if (serve_node->has_attr("workers")) {
      sc.workers = static_cast<std::size_t>(
          parse_uint(serve_node->attr("workers"), "<serve> attribute 'workers'"));
    }
    if (serve_node->has_attr("queue-limit")) {
      sc.queue_limit = static_cast<std::size_t>(parse_uint(
          serve_node->attr("queue-limit"), "<serve> attribute 'queue-limit'"));
    }
    if (serve_node->has_attr("deadline-default")) {
      sc.default_deadline_seconds =
          parse_duration(serve_node->attr("deadline-default"));
    }
    if (serve_node->has_attr("age-boost")) {
      sc.age_boost = parse_double(serve_node->attr("age-boost"),
                                  "<serve> attribute 'age-boost'");
    }
    config.options.serve = sc;
  }

  if (const auto* fabric_node = root->child("fabric")) {
    check_names(*fabric_node, {"nodes", "partition", "remote-us", "remote-bw"});
    fabric::FabricOptions fo;
    if (fabric_node->has_attr("nodes")) {
      fo.nodes = static_cast<std::size_t>(
          parse_uint(fabric_node->attr("nodes"), "<fabric> attribute 'nodes'"));
      CANOPUS_CHECK(fo.nodes >= 1, "<fabric> nodes must be >= 1");
    }
    if (fabric_node->has_attr("partition")) {
      const std::string& p = fabric_node->attr("partition");
      if (p == "hash") {
        fo.partition = fabric::Partition::kHash;
      } else if (p == "range" || p == "morton-range") {
        fo.partition = fabric::Partition::kMortonRange;
      } else {
        throw Error("<fabric> unknown partition scheme: '" + p + "'");
      }
    }
    if (fabric_node->has_attr("remote-us")) {
      const double us = parse_double(fabric_node->attr("remote-us"),
                                     "<fabric> attribute 'remote-us'");
      CANOPUS_CHECK(us >= 0.0, "<fabric> remote-us must be >= 0");
      fo.remote_latency_seconds = us / 1e6;
    }
    if (fabric_node->has_attr("remote-bw")) {
      fo.remote_bandwidth = parse_rate(fabric_node->attr("remote-bw"));
      CANOPUS_CHECK(std::isfinite(fo.remote_bandwidth),
                    "<fabric> remote-bw must be finite");
    }
    config.fabric = fo;
  }

  if (const auto* tiering_node = root->child("tiering")) {
    check_names(*tiering_node,
                {"enabled", "half-life", "promote-above", "demote-below",
                 "interval", "max-moves", "cooldown-ticks", "reserve"});
    tiering::TieringConfig tc;
    if (tiering_node->has_attr("enabled")) {
      tc.enabled = parse_bool(tiering_node->attr("enabled"));
    }
    if (tiering_node->has_attr("half-life")) {
      tc.half_life_seconds = parse_duration(tiering_node->attr("half-life"));
    }
    if (tiering_node->has_attr("promote-above")) {
      tc.promote_threshold = parse_double(tiering_node->attr("promote-above"),
                                          "<tiering> attribute 'promote-above'");
    }
    if (tiering_node->has_attr("demote-below")) {
      tc.demote_threshold = parse_double(tiering_node->attr("demote-below"),
                                         "<tiering> attribute 'demote-below'");
    }
    if (tiering_node->has_attr("interval")) {
      tc.interval_seconds = parse_duration(tiering_node->attr("interval"));
    }
    if (tiering_node->has_attr("max-moves")) {
      tc.max_moves_per_tick = static_cast<std::size_t>(parse_uint(
          tiering_node->attr("max-moves"), "<tiering> attribute 'max-moves'"));
    }
    if (tiering_node->has_attr("cooldown-ticks")) {
      tc.cooldown_ticks = static_cast<std::uint32_t>(
          parse_uint(tiering_node->attr("cooldown-ticks"),
                     "<tiering> attribute 'cooldown-ticks'"));
    }
    if (tiering_node->has_attr("reserve")) {
      tc.reserve = parse_probability(tiering_node->attr("reserve"), "reserve");
    }
    config.options.tiering = tc;
  }

  // The Options-level rules live in one place; run them once.
  config.options.validate();
  return config;
}

RuntimeConfig load_config_file(const std::string& path) {
  std::ifstream f(path);
  CANOPUS_CHECK(f.good(), "cannot open config file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return load_config(buf.str());
}

}  // namespace canopus::core

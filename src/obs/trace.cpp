#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace canopus::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string format_number(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << v;
  return os.str();
}

}  // namespace

/// Per-thread event buffer. The mutex is uncontended on the hot path (only
/// its owner thread records into it); exports take it briefly per log.
struct TraceRecorder::ThreadLog {
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  // only touched by the owner thread
  std::mutex mu;
  std::vector<TraceEvent> events;
};

TraceRecorder::TraceRecorder() : epoch_ns_(steady_now_ns()) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // leaked: see hpp
  return *recorder;
}

TraceRecorder::ThreadLog& TraceRecorder::local() {
  // One registered log per thread, owned by the recorder so events survive
  // thread exit; the thread_local caches the lookup.
  static thread_local ThreadLog* log = [this] {
    std::lock_guard lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->tid = static_cast<std::uint32_t>(logs_.size());
    return logs_.back().get();
  }();
  return *log;
}

double TraceRecorder::now_us() const {
  return static_cast<double>(steady_now_ns() - epoch_ns_) * 1e-3;
}

void TraceRecorder::record(TraceEvent event) {
  auto& log = local();
  event.tid = log.tid;
  std::lock_guard lock(log.mu);
  log.events.push_back(std::move(event));
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  for (auto& log : logs_) {
    std::lock_guard log_lock(log->mu);
    log->events.clear();
  }
  epoch_ns_ = steady_now_ns();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard lock(mu_);
    for (const auto& log : logs_) {
      std::lock_guard log_lock(log->mu);
      out.insert(out.end(), log->events.begin(), log->events.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.ts_us < b.ts_us;
  });
  return out;
}

std::size_t TraceRecorder::thread_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& log : logs_) {
    std::lock_guard log_lock(log->mu);
    if (!log->events.empty()) ++n;
  }
  return n;
}

std::string TraceRecorder::chrome_trace_json() const {
  const auto evts = events();
  std::string out;
  out.reserve(evts.size() * 128 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : evts) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    append_json_escaped(out, e.name);
    out += "\",\"cat\":\"canopus\",\"ph\":\"X\",\"ts\":";
    out += format_number(e.ts_us);
    out += ",\"dur\":";
    out += format_number(e.dur_us);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"args\":{";
    bool first_arg = true;
    for (const auto& a : e.args) {
      if (!first_arg) out += ",";
      first_arg = false;
      out += "\"";
      append_json_escaped(out, a.key);
      out += "\":\"";
      append_json_escaped(out, a.value);
      out += "\"";
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void TraceRecorder::save_chrome_trace(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) throw std::runtime_error("cannot open trace sink: " + path);
  f << chrome_trace_json();
  if (!f.good()) throw std::runtime_error("trace write failed: " + path);
}

void TraceRecorder::print_summary(std::ostream& os) const {
  struct Agg {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Agg> by_name;  // sorted output for free
  for (const auto& e : events()) {
    auto& a = by_name[e.name];
    ++a.count;
    a.total_us += e.dur_us;
    a.max_us = std::max(a.max_us, e.dur_us);
  }
  os << "-- trace spans " << std::string(43, '-') << '\n';
  if (by_name.empty()) {
    os << "  (no spans recorded)\n";
    return;
  }
  os << "  " << std::left << std::setw(28) << "span" << std::right
     << std::setw(8) << "count" << std::setw(12) << "total(ms)" << std::setw(11)
     << "mean(ms)" << std::setw(11) << "max(ms)" << '\n';
  for (const auto& [name, a] : by_name) {
    os << "  " << std::left << std::setw(28) << name << std::right
       << std::setw(8) << a.count << std::setw(12) << std::fixed
       << std::setprecision(3) << a.total_us * 1e-3 << std::setw(11)
       << (a.total_us * 1e-3 / static_cast<double>(a.count)) << std::setw(11)
       << a.max_us * 1e-3 << std::defaultfloat << '\n';
  }
}

// ------------------------------------------------------------------- Span --

TraceRecorder::Span::Span(std::string name,
                          std::initializer_list<SpanArg> args) {
  if (!enabled()) return;
  active_ = true;
  name_ = std::move(name);
  args_.assign(args.begin(), args.end());
  auto& recorder = global();
  ++recorder.local().depth;
  start_us_ = recorder.now_us();
}

TraceRecorder::Span::~Span() {
  if (!active_) return;
  auto& recorder = global();
  auto& log = recorder.local();
  TraceEvent e;
  e.name = std::move(name_);
  e.ts_us = start_us_;
  e.dur_us = recorder.now_us() - start_us_;
  e.depth = --log.depth;
  e.args = std::move(args_);
  recorder.record(std::move(e));
}

}  // namespace canopus::obs

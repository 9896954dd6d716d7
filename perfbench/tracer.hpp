// Span recording for the traced benchmark run, and the Transport
// decorator that times the orchestrator's calls into its data plane.
//
// A span is one call into a layer's public entry point: name, start, end,
// the span that caused it, and the request it belongs to. Spans are kept
// in memory (one mutex-guarded vector; items are ~40us, so one lock per
// span is noise) and written out once, when the run ends. A disabled
// Tracer records nothing and never reads the clock, which is how the
// traced runner times the untraced half of each request pair.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/orchestrator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  std::uint64_t request = 0;
  std::string name;          // "<layer>.<call>", e.g. "planner.plan"
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  unsigned thread = 0;

  [[nodiscard]] double us() const { return (end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Spans and counts recorded from now on belong to request `r`.
  void set_request(std::uint64_t r) { request_ = r; }
  [[nodiscard]] std::uint64_t request() const { return request_; }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Add `v` to the request's counter `name`.
  void count(const std::string& name, double v = 1.0) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    counts_[request_][name] += v;
  }

  [[nodiscard]] std::uint64_t next_id() { return ++last_id_; }

  void record(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  /// Recorded spans and counts. Call only once no thread records.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::map<std::uint64_t, std::map<std::string, double>>&
  counts() const {
    return counts_;
  }

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> request_{0};
  std::atomic<std::uint64_t> last_id_{0};
  std::mutex mu_;  // guards spans_ and counts_
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::map<std::string, double>> counts_;
};

/// A small dense id for the calling thread, for the span file.
inline unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned mine = next++;
  return mine;
}

/// RAII span: opens at construction, recorded at destruction. With the
/// tracer disabled it costs one branch each way.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    span_.id = tracer_.next_id();
    span_.parent = parent;
    span_.request = tracer_.request();
    span_.name = name;
    span_.thread = thread_index();
    span_.start_ns = tracer_.now_ns();
  }
  ~Scope() {
    if (!tracer_.enabled()) return;
    span_.end_ns = tracer_.now_ns();
    tracer_.record(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's id, for use as a child's parent (0 when disabled).
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Forwards every Transport call unchanged to `inner`, timing spawn,
/// submit and wait_any as `transport.*` spans under `parent` and counting
/// events by kind. It also keeps what the traced run probes after the
/// fleet ends: each lease_done report and its label (the report's file
/// or arena segment), and when the first lease_done arrived.
class TracingTransport : public ep::core::Transport {
 public:
  TracingTransport(ep::core::Transport& inner, Tracer& tracer,
                   std::uint64_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  std::optional<std::size_t> spawn() override {
    if (!first_spawn_ns_ && tracer_.enabled())
      first_spawn_ns_ = tracer_.now_ns();
    Scope s(tracer_, "transport.spawn", parent_);
    tracer_.count("transport.spawn_count");
    return inner_.spawn();
  }
  void submit(std::size_t worker, const ep::core::Lease& lease) override {
    Scope s(tracer_, "transport.submit", parent_);
    tracer_.count("transport.submit_count");
    inner_.submit(worker, lease);
  }
  void steal(std::size_t worker) override { inner_.steal(worker); }
  void feedback(std::size_t worker, const ep::core::InjectionPlan& plan,
                std::size_t begin, std::size_t end) override {
    inner_.feedback(worker, plan, begin, end);
  }
  std::optional<ep::core::WorkerEvent> wait_any(long timeout_ms) override {
    std::optional<ep::core::WorkerEvent> ev;
    {
      Scope s(tracer_, "transport.wait_any", parent_);
      ev = inner_.wait_any(timeout_ms);
    }
    if (ev) {
      tracer_.count(std::string("transport.events.") + kind_name(ev->kind));
      if (ev->kind == ep::core::WorkerEvent::Kind::lease_done &&
          tracer_.enabled()) {
        if (!first_done_ns_) first_done_ns_ = tracer_.now_ns();
        reports_.push_back(ev->report);
        labels_.push_back(ev->label);
      }
    }
    return ev;
  }
  void shutdown(std::size_t worker) override { inner_.shutdown(worker); }
  void kill(std::size_t worker) override { inner_.kill(worker); }

  /// Reports and labels of every lease_done, in arrival order (tracing
  /// on only).
  [[nodiscard]] const std::vector<ep::core::ShardReport>& reports() const {
    return reports_;
  }
  [[nodiscard]] const std::vector<std::string>& labels() const {
    return labels_;
  }
  /// First spawn to first lease_done, in ms; nullopt when either is
  /// missing or tracing is off.
  [[nodiscard]] std::optional<double> first_done_ms() const {
    if (!first_spawn_ns_ || !first_done_ns_) return std::nullopt;
    return (*first_done_ns_ - *first_spawn_ns_) / 1e6;
  }

  static const char* kind_name(ep::core::WorkerEvent::Kind k) {
    using K = ep::core::WorkerEvent::Kind;
    switch (k) {
      case K::lease_done: return "lease_done";
      case K::lease_yielded: return "lease_yielded";
      case K::heartbeat: return "heartbeat";
      case K::preempted: return "preempted";
      case K::died: return "died";
      case K::exited: return "exited";
    }
    return "unknown";
  }

 private:
  ep::core::Transport& inner_;
  Tracer& tracer_;
  const std::uint64_t parent_;
  std::optional<std::int64_t> first_spawn_ns_;
  std::optional<std::int64_t> first_done_ns_;
  std::vector<ep::core::ShardReport> reports_;
  std::vector<std::string> labels_;
};

/// Nearest-rank percentile of `v` (p in [0, 100]); 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

}  // namespace perfbench

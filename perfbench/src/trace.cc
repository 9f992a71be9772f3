#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>

namespace perfbench {
namespace {

/// One thread's hot counters. Only the owning thread writes (relaxed load
/// plus store, no read-modify-write); readers sum every slot after the
/// batch barrier that ended the writes.
struct Slot {
  std::atomic<std::uint64_t> values[kNumCounters] = {};
};

std::mutex& SlotsMutex() {
  static std::mutex mutex;
  return mutex;
}

/// Slots are never freed: a thread pool may outlive one tracer, and a
/// deque keeps every slot's address stable as threads register.
std::deque<Slot>& Slots() {
  static std::deque<Slot> slots;
  return slots;
}

Slot& MySlot() {
  thread_local Slot* slot = [] {
    std::lock_guard<std::mutex> lock(SlotsMutex());
    return &Slots().emplace_back();
  }();
  return *slot;
}

bool IsTimeCounter(int counter) {
  return counter == kBeginNs || counter == kStepNs ||
         counter == kRolloutNs || counter == kGradientNs;
}

}  // namespace

const char* CounterName(Counter counter) {
  switch (counter) {
    case kBeginCalls: return "river.begin_calls";
    case kBeginNs: return "river.begin_s";
    case kStepCalls: return "river.step_calls";
    case kStepNs: return "river.step_s";
    case kRolloutCalls: return "river.rollouts";
    case kRolloutNs: return "river.rollout_s";
    case kGradientCalls: return "grad.gradient_calls";
    case kGradientNs: return "grad.gradient_s";
    case kNumCounters: break;
  }
  return "?";
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Span::Get(const std::string& key) const {
  for (const auto& [name, value] : counters) {
    if (name == key) return value;
  }
  return 0.0;
}

Tracer::Tracer() : origin_ns_(NowNs()) {}

double Tracer::Now() const {
  return static_cast<double>(NowNs() - origin_ns_) * 1e-9;
}

int Tracer::Open(const std::string& name, int run_id) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back().id;
  span.run_id = run_id;
  span.name = name;
  span.start_s = Now();
  spans_.push_back(std::move(span));
  OpenSpan open{spans_.back().id, {}};
  for (int c = 0; c < kNumCounters; ++c) {
    open.at_open[c] = Total(static_cast<Counter>(c));
  }
  stack_.push_back(open);
  return open.id;
}

void Tracer::Close(int id) {
  if (stack_.empty() || stack_.back().id != id) {
    std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
    return;
  }
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = Now();
  for (int c = 0; c < kNumCounters; ++c) {
    const std::uint64_t delta =
        Total(static_cast<Counter>(c)) - stack_.back().at_open[c];
    if (delta == 0) continue;
    span.counters.emplace_back(
        CounterName(static_cast<Counter>(c)),
        IsTimeCounter(c) ? static_cast<double>(delta) * 1e-9
                         : static_cast<double>(delta));
  }
  stack_.pop_back();
}

void Tracer::Attach(int id, const std::string& name, double value) {
  spans_[static_cast<std::size_t>(id)].counters.emplace_back(name, value);
}

void Tracer::Add(Counter counter, std::uint64_t value) {
  std::atomic<std::uint64_t>& cell = MySlot().values[counter];
  cell.store(cell.load(std::memory_order_relaxed) + value,
             std::memory_order_relaxed);
}

std::uint64_t Tracer::Total(Counter counter) {
  std::lock_guard<std::mutex> lock(SlotsMutex());
  std::uint64_t total = 0;
  for (const Slot& slot : Slots()) {
    total += slot.values[counter].load(std::memory_order_relaxed);
  }
  return total;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(file,
                 "{\"id\": %d, \"parent\": %d, \"run\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f",
                 span.id, span.parent, span.run_id, span.name.c_str(),
                 span.start_s, span.end_s);
    for (const auto& [name, value] : span.counters) {
      std::fprintf(file, ", \"%s\": %.9g", name.c_str(), value);
    }
    std::fprintf(file, "}\n");
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench

#pragma once
/// \file trace.hpp
/// In-memory span recorder for the benchmark's traced run. Spans are opened
/// by the benchmark around each public library call a workload makes (the
/// library itself is not instrumented), kept in memory, and written out at
/// exit as Chrome trace-event JSON that Perfetto and about:tracing open.
/// A disabled tracer records nothing, so the untraced run executes the same
/// workload code with one branch per span.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p start.
double secondsSince(Clock::time_point start);

class Tracer {
 public:
  Tracer(std::string workload, bool enabled);

  /// RAII span: records [construction, destruction) under \p name, with the
  /// innermost span still open at construction as its parent.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Open a span; a no-op handle when the tracer is disabled. Spans must
  /// close in reverse opening order and on the thread that opened them.
  [[nodiscard]] Span span(const char* name);

  /// Durations [s] of every closed span called \p name, in opening order.
  std::vector<double> durations(const std::string& name) const;

  /// Chrome trace-event document ("X" complete events, microseconds since
  /// the tracer was created); each event carries its span id, parent id and
  /// workload in args.
  std::string chromeTraceJson() const;

 private:
  struct Record {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    long long parent = -1;  ///< Index into records_, -1 for a root span.
    bool closed = false;
  };
  void close(std::size_t index);

  std::string workload_;
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< Stack of open span indices.
};

}  // namespace perfbench

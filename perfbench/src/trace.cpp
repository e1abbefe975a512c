#include "trace.hpp"

#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer(std::string workload, bool enabled)
    : workload_(std::move(workload)), enabled_(enabled), origin_(Clock::now()) {}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Span Tracer::span(const char* name) {
  if (!enabled_) return Span(nullptr, 0);
  Record record;
  record.name = name;
  record.parent = open_.empty() ? -1 : static_cast<long long>(open_.back());
  record.start = Clock::now();
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
  return Span(this, records_.size() - 1);
}

void Tracer::close(std::size_t index) {
  const Clock::time_point now = Clock::now();
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("Tracer: spans must close in reverse order");
  open_.pop_back();
  records_[index].end = now;
  records_[index].closed = true;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.closed && r.name == name)
      out.push_back(std::chrono::duration<double>(r.end - r.start).count());
  }
  return out;
}

std::string Tracer::chromeTraceJson() const {
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  nh::util::JsonWriter w;
  w.beginObject();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").beginArray();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (!r.closed) continue;
    w.beginObject();
    w.key("name").value(r.name);
    w.key("cat").value(workload_);
    w.key("ph").value("X");
    w.key("ts").value(micros(r.start));
    w.key("dur").value(micros(r.end) - micros(r.start));
    w.key("pid").value(std::size_t{1});
    w.key("tid").value(std::size_t{1});
    w.key("args").beginObject();
    w.key("span_id").value(i);
    w.key("parent_id").value(r.parent);
    w.key("workload").value(workload_);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

}  // namespace perfbench

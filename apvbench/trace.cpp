// Per-rank op timing and span tracing for the rank programs, plus the
// Chrome trace-event writer.

#include <cstdio>

#include "bench.hpp"

namespace apvbench {

namespace {

std::vector<RankLog> g_logs;

struct KindInfo {
  const char* name;
  Layer layer;
};

constexpr KindInfo kKinds[kSpanKinds] = {
    {"op", Layer::Bench},
    {"send", Layer::Mpi},
    {"recv", Layer::Mpi},
    {"irecv", Layer::Mpi},
    {"waitall", Layer::Mpi},
    {"allreduce_8", Layer::Mpi},
    {"allreduce_65536", Layer::Mpi},
    {"bcast_4096", Layer::Mpi},
    {"allgather_64", Layer::Mpi},
    {"alltoall_64", Layer::Mpi},
    {"gatherv", Layer::Mpi},
    {"barrier", Layer::Mpi},
    {"load_balance", Layer::Lb},
    {"add_load", Layer::Lb},
    {"checkpoint_all", Layer::Ft},
    {"kernel", Layer::Apps},
};

}  // namespace

const char* span_name(Span s) noexcept {
  return kKinds[static_cast<int>(s)].name;
}

Layer span_layer(Span s) noexcept { return kKinds[static_cast<int>(s)].layer; }

const char* layer_name(Layer l) noexcept {
  static constexpr const char* kNames[kLayers] = {"bench", "mpi", "lb", "ft",
                                                  "apps"};
  return kNames[static_cast<int>(l)];
}

std::vector<RankLog>& logs() { return g_logs; }

void RankLog::reset(bool timing, bool tracing, std::size_t expected_ops,
                    std::size_t span_cap) {
  *this = RankLog{};
  timing_ = timing;
  tracing_ = tracing && timing;
  if (timing_) op_us_.reserve(expected_ops);
  if (tracing_) {
    span_cap_ = span_cap;
    spans_.reserve(span_cap);
  }
}

void RankLog::op_begin(std::uint32_t op) noexcept {
  op_ = op;
  if (tracing_) {
    open(Span::Op);
    op_t0_us_ = stack_[0].t0_us;
  } else {
    op_t0_us_ = now_us();
  }
}

void RankLog::op_end() noexcept {
  const double t1 = now_us();
  if (tracing_) close();
  if (!timing_) return;
  op_us_.push_back(static_cast<float>(t1 - op_t0_us_));
  ++ops_;
}

void RankLog::open(Span s) noexcept {
  std::int32_t idx = -1;
  if (spans_.size() < span_cap_) {
    idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(SpanRec{});
  } else {
    ++dropped_;
  }
  stack_[depth_++] = Open{now_us(), 0.0, idx, s};
}

void RankLog::close() noexcept {
  const double t1 = now_us();
  const Open o = stack_[--depth_];
  const double dur = t1 - o.t0_us;
  const int k = static_cast<int>(o.kind);
  kind_us_[k] += dur;
  ++kind_calls_[k];
  layer_self_us_[static_cast<int>(span_layer(o.kind))] += dur - o.child_us;
  std::int32_t parent = -1;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_us += dur;
    parent = stack_[depth_ - 1].idx;
  } else {
    op_total_us_ += dur;
    op_covered_us_ += o.child_us;
  }
  if (o.idx >= 0)
    spans_[static_cast<std::size_t>(o.idx)] =
        SpanRec{o.t0_us, t1, op_, parent, o.kind};
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<RankLog>& logs, double origin_us) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const auto& spans = logs[r].spans();
    if (spans.empty()) continue;
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %zu, \"args\": {\"name\": \"rank %zu\"}}",
                 first ? "" : ",\n", r, r);
    first = false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      if (s.t1_us <= 0.0) continue;  // still open when the rep ended
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 0, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"op\": %u, \"id\": %zu, \"parent\": %d}}",
                   span_name(s.kind), layer_name(span_layer(s.kind)), r,
                   s.t0_us - origin_us, s.t1_us - s.t0_us, s.op, i, s.parent);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace apvbench

#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <variant>

namespace perfbench {
namespace {

struct Open {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  const vpr::obs::TraceEvent* event = nullptr;
  bool has_child = false;
  std::int64_t self_us = 0;
};

struct Segment {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::string module;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

std::string module_of(const std::string& name) {
  // The flow's per-stage spans (flow.place, flow.route, ...) time a stage
  // from the flow's side; their self time is that stage's work outside the
  // engine's own spans, so it belongs to the stage's module.
  if (starts_with(name, "flow.place") || starts_with(name, "place.")) {
    return "place";
  }
  if (starts_with(name, "flow.route") || starts_with(name, "route.")) {
    return "route";
  }
  if (starts_with(name, "flow.opt") || starts_with(name, "opt.")) return "opt";
  if (name == "flow.sta" || name == "flow.power" || starts_with(name, "sta.")) {
    return "sta";
  }
  if (name == "flow.cts" || starts_with(name, "cts.")) return "cts";
  if (starts_with(name, "flow.")) return "flow";
  if (starts_with(name, "decode.") || starts_with(name, "nn.")) return "nn";
  if (starts_with(name, "train.") || starts_with(name, "align.")) {
    return "align";
  }
  if (starts_with(name, "serve.") || starts_with(name, "router.") ||
      starts_with(name, "registry.")) {
    return "serve";
  }
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

const SpanStats& LayerTable::span(const std::string& name) const {
  static const SpanStats kEmpty;
  const auto it = spans.find(name);
  return it == spans.end() ? kEmpty : it->second;
}

double LayerTable::module_wall(const std::string& module) const {
  const auto it = module_wall_ms.find(module);
  return it == module_wall_ms.end() ? 0.0 : it->second;
}

double LayerTable::module_self(const std::string& module) const {
  const auto it = module_self_ms.find(module);
  return it == module_self_ms.end() ? 0.0 : it->second;
}

LayerTable reduce_trace(const std::vector<vpr::obs::TraceEvent>& events,
                        std::int64_t t0_us, std::int64_t t1_us) {
  LayerTable table;
  table.wall_ms = static_cast<double>(t1_us - t0_us) / 1000.0;

  std::map<std::uint32_t, std::vector<Open>> by_thread;
  std::map<std::pair<std::string, std::uint64_t>, std::int64_t> async_end;
  for (const auto& ev : events) {
    if (ev.phase == 'X') {
      const std::int64_t b = std::max(ev.ts_us, t0_us);
      const std::int64_t e = std::min(ev.ts_us + ev.dur_us, t1_us);
      if (e < b) continue;
      by_thread[ev.tid].push_back({b, e, &ev, false, 0});
      SpanStats& s = table.spans[ev.name];
      ++s.count;
      s.inclusive_ms += static_cast<double>(e - b) / 1000.0;
      s.durations_ms.push_back(static_cast<double>(e - b) / 1000.0);
      for (const auto& a : ev.args) {
        if (const auto* i = std::get_if<std::int64_t>(&a.value)) {
          table.span_arg_sum[ev.name][a.key] += static_cast<double>(*i);
        } else if (const auto* d = std::get_if<double>(&a.value)) {
          table.span_arg_sum[ev.name][a.key] += *d;
        }
      }
    } else if (ev.phase == 'b') {
      table.async[ev.name][ev.id].begin_us = ev.ts_us;
    } else if (ev.phase == 'e') {
      async_end[{ev.name, ev.id}] = ev.ts_us;
    }
  }
  // The serving path opens a request as serve.request and closes it as
  // serve.finish; every other async track closes under its own name.
  for (auto& [name, by_id] : table.async) {
    const std::string end_name = name == "serve.request" ? "serve.finish"
                                                         : name;
    for (auto& [id, span] : by_id) {
      const auto it = async_end.find({end_name, id});
      if (it != async_end.end()) span.end_us = it->second;
    }
  }

  // Per thread: walk the spans in start order with a stack of open spans;
  // the innermost open span owns every instant until its next child opens
  // or it closes.
  std::vector<Segment> segments;
  const auto emit = [&](Open& owner, std::int64_t b, std::int64_t e) {
    if (e <= b) return;
    const std::string module = module_of(owner.event->name);
    const double ms = static_cast<double>(e - b) / 1000.0;
    owner.self_us += e - b;
    table.spans[owner.event->name].self_ms += ms;
    table.module_self_ms[module] += ms;
    segments.push_back({b, e, module});
  };
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const Open& a, const Open& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    std::vector<Open*> stack;
    std::int64_t cursor = t0_us;
    const auto close_until = [&](std::int64_t t) {
      while (!stack.empty() && stack.back()->end <= t) {
        Open* top = stack.back();
        emit(*top, cursor, top->end);
        cursor = std::max(cursor, top->end);
        if (!top->has_child) ++table.leaf_count[top->event->name];
        table.spans[top->event->name].self_each_ms.push_back(
            static_cast<double>(top->self_us) / 1000.0);
        stack.pop_back();
      }
    };
    for (Open& s : spans) {
      close_until(s.begin);
      if (!stack.empty()) {
        emit(*stack.back(), cursor, s.begin);
        stack.back()->has_child = true;
        // Microsecond rounding can push a child past its parent's end.
        s.end = std::min(s.end, stack.back()->end);
      }
      cursor = s.begin;
      stack.push_back(&s);
    }
    close_until(t1_us);
  }

  // Global sweep: split each instant evenly among the threads with an open
  // span; instants where no thread has one are glue.
  std::vector<std::string> modules;
  std::vector<std::pair<std::int64_t, int>> points;  // (time, +/-(m+1))
  for (const auto& seg : segments) {
    auto it = std::find(modules.begin(), modules.end(), seg.module);
    const int m = static_cast<int>(it - modules.begin());
    if (it == modules.end()) modules.push_back(seg.module);
    points.push_back({seg.begin, m + 1});
    points.push_back({seg.end, -(m + 1)});
  }
  std::sort(points.begin(), points.end());
  std::vector<int> active(modules.size(), 0);
  std::vector<double> wall_us(modules.size(), 0.0);
  int total = 0;
  double glue_us = 0.0;
  std::int64_t prev = t0_us;
  for (const auto& [t, delta] : points) {
    const double dt = static_cast<double>(t - prev);
    if (dt > 0.0) {
      if (total == 0) {
        glue_us += dt;
      } else {
        for (std::size_t m = 0; m < modules.size(); ++m) {
          wall_us[m] += dt * active[m] / total;
        }
      }
      prev = t;
    }
    const int m = std::abs(delta) - 1;
    const int step = delta > 0 ? 1 : -1;
    active[static_cast<std::size_t>(m)] += step;
    total += step;
  }
  glue_us += static_cast<double>(t1_us - prev);
  for (std::size_t m = 0; m < modules.size(); ++m) {
    table.module_wall_ms[modules[m]] += wall_us[m] / 1000.0;
  }
  table.module_wall_ms["glue"] += glue_us / 1000.0;
  return table;
}

const std::vector<std::string>& report_modules() {
  static const std::vector<std::string> kModules = {
      "flow", "place", "route",   "opt",   "sta",    "cts", "netlist",
      "align", "nn",   "serve", "client", "glue"};
  return kModules;
}

void fill_training_layers(const LayerTable& t, Result& out) {
  const double train_s = t.span("train.epoch").inclusive_ms / 1000.0;
  double pairs = 0.0;
  if (const auto it = t.span_arg_sum.find("train.minibatch");
      it != t.span_arg_sum.end() && it->second.count("pairs") != 0) {
    pairs = it->second.at("pairs");
  }
  out.set_layer("align.train_s", train_s, "s");
  out.set_layer("align.train_pairs_per_s",
                train_s > 0.0 ? pairs / train_s : 0.0, "1/s");
  out.set_layer("nn.adam_step_s", t.span("nn.adam.step").inclusive_ms / 1000.0,
                "s");
}

void fill_common_layers(const LayerInputs& in, Result& out) {
  const LayerTable& t = *in.table;
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const SpanStats& runs = t.span("flow.run");
  const double n_runs = static_cast<double>(runs.count);
  out.set_layer("flow.runs", n_runs, "count");
  out.set_layer("flow.hit_rate",
                per(static_cast<double>(in.flow_stats.hits),
                    static_cast<double>(in.flow_stats.hits +
                                        in.flow_stats.misses)),
                "ratio");
  out.set_layer("flow.run_ms.p50", percentile(runs.durations_ms, 0.5), "ms");
  out.set_layer("flow.run_ms.p90", percentile(runs.durations_ms, 0.9), "ms");
  out.set_layer("flow.parallelism", per(runs.inclusive_ms, t.wall_ms),
                "ratio");
  for (const char* m : {"place", "route", "opt", "sta", "cts"}) {
    out.set_layer(std::string(m) + ".self_ms_per_run",
                  per(t.module_self(m), n_runs), "ms");
  }
  out.set_layer("route.rounds_per_run",
                per(static_cast<double>(t.span("route.round").count), n_runs),
                "count");
  out.set_layer("opt.fix_setup_ms_per_run",
                per(t.span("opt.fix_setup").inclusive_ms, n_runs), "ms");
  const auto leaves = t.leaf_count.find("sta.incremental.analyze");
  out.set_layer(
      "sta.unchanged_frac",
      per(leaves == t.leaf_count.end() ? 0.0
                                       : static_cast<double>(leaves->second),
          static_cast<double>(t.span("sta.incremental.analyze").count)),
      "ratio");

  fill_training_layers(t, out);

  const SpanStats& steps = t.span("decode.step_batch");
  double rows = 0.0;
  if (const auto it = t.span_arg_sum.find("decode.step_batch");
      it != t.span_arg_sum.end() && it->second.count("rows") != 0) {
    rows = it->second.at("rows");
  }
  out.set_layer("nn.decode_step_ms.p50", percentile(steps.durations_ms, 0.5),
                "ms");
  out.set_layer("nn.lanes_per_step",
                per(rows, static_cast<double>(steps.count)), "count");

  out.set_layer("obs.trace_overhead_frac",
                per(in.traced_wall_s - in.untraced_wall_s, in.untraced_wall_s),
                "ratio");
  out.set_layer("inputs.repeat_share", in.repeat_share, "ratio");
  for (const auto& m : report_modules()) {
    out.set_layer(m + ".wall_ms", t.module_wall(m), "ms");
  }
  out.set_layer("traced.wall_ms", t.wall_ms, "ms");
}

void print_layer_table(const std::string& title, const LayerTable& table) {
  std::printf("layer table (%s), traced wall %.1f ms\n", title.c_str(),
              table.wall_ms);
  std::printf("  %-10s %14s %12s %7s\n", "module", "busy self ms",
              "wall ms", "wall %");
  double sum = 0.0;
  for (const auto& [module, wall] : table.module_wall_ms) {
    std::printf("  %-10s %14.1f %12.1f %6.1f%%\n", module.c_str(),
                table.module_self(module), wall,
                table.wall_ms > 0.0 ? 100.0 * wall / table.wall_ms : 0.0);
    sum += wall;
  }
  std::printf("  %-10s %14s %12.1f %6.1f%%\n", "sum", "", sum,
              table.wall_ms > 0.0 ? 100.0 * sum / table.wall_ms : 0.0);
}

}  // namespace perfbench

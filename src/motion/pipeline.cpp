#include "motion/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "analyses/constprop.hpp"
#include "ir/validate.hpp"
#include "motion/dce.hpp"
#include "motion/pcm.hpp"
#include "motion/sinking.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

std::uint64_t PassStats::counter(std::string_view name) const {
  auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  return it != counters.end() && it->first == name ? it->second : 0;
}

std::string PipelineResult::to_string() const {
  std::size_t name_width = 4;  // "pass"
  for (const PassStats& p : passes) {
    name_width = std::max(name_width, p.name.size());
  }
  std::ostringstream os;
  os << "pipeline (" << passes.size() << " pass"
     << (passes.size() == 1 ? "" : "es") << ")\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-*s %7s %7s %6s %8s %8s %10s\n",
                static_cast<int>(name_width), "pass", "before", "after",
                "delta", "actions", "remarks", "wall ms");
  os << buf;
  for (const PassStats& p : passes) {
    long long delta = static_cast<long long>(p.nodes_after) -
                      static_cast<long long>(p.nodes_before);
    std::snprintf(buf, sizeof(buf),
                  "  %-*s %7zu %7zu %+6lld %8zu %8zu %10.3f\n",
                  static_cast<int>(name_width), p.name.c_str(),
                  p.nodes_before, p.nodes_after, delta, p.actions, p.remarks,
                  p.wall_ms);
    os << buf;
  }
  return os.str();
}

std::string PipelineResult::to_json(bool pretty) const {
  obs::JsonWriter w(pretty);
  w.begin_object();
  w.key("passes").begin_array();
  for (const PassStats& p : passes) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("nodes_before").value(p.nodes_before);
    w.key("nodes_after").value(p.nodes_after);
    w.key("node_delta").value(static_cast<std::int64_t>(p.nodes_after) -
                              static_cast<std::int64_t>(p.nodes_before));
    w.key("actions").value(p.actions);
    w.key("remarks").value(p.remarks);
    w.key("wall_ms").value(p.wall_ms);
    w.key("counters").begin_object();
    for (const auto& [k, v] : p.counters) w.key(k).value(v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  if (validation.has_value()) {
    w.key("validation").begin_object();
    w.key("status").value(verify::status_name(validation->status));
    w.key("exact").value(validation->exact);
    w.key("original_behaviours").value(validation->original_behaviours);
    w.key("transformed_behaviours").value(validation->transformed_behaviours);
    w.key("witness").value(validation->witness_text());
    w.end_object();
  }
  w.end_object();
  return w.take();
}

Pipeline& Pipeline::add(std::string name, PassFn pass) {
  std::string wall_hist = "pipeline.pass_wall_ns." + name;
  passes_.push_back(Pass{std::move(name), std::move(wall_hist),
                         std::move(pass)});
  return *this;
}

Pipeline& Pipeline::add_pcm() {
  return add("pcm", [](Graph& g, std::size_t* actions) {
    MotionResult r = parallel_code_motion(g);
    *actions = r.num_insertions() + r.num_replacements();
    g = std::move(r.graph);
  });
}

Pipeline& Pipeline::add_constprop() {
  return add("constprop", [](Graph& g, std::size_t* actions) {
    ConstPropResult r = propagate_constants(g);
    *actions = r.operands_folded + r.rhs_folded;
    g = std::move(r.graph);
  });
}

Pipeline& Pipeline::add_dce(std::vector<std::string> observed) {
  return add("dce", [observed = std::move(observed)](Graph& g,
                                                     std::size_t* actions) {
    DceOptions opts;
    opts.observed = observed;
    DceResult r = eliminate_dead_assignments(g, opts);
    *actions = r.eliminated.size();
    g = std::move(r.graph);
  });
}

Pipeline& Pipeline::add_sinking() {
  return add("sinking", [](Graph& g, std::size_t* actions) {
    SinkingResult r = sink_partially_dead_assignments(g);
    *actions = r.sunk.size();
    g = std::move(r.graph);
  });
}

Pipeline& Pipeline::add_validate() {
  // Remember which pass this check guards so a failure names the culprit.
  std::string after = passes_.empty() ? std::string("(input)")
                                      : passes_.back().name;
  return add("validate", [after](Graph& g, std::size_t* actions) {
    try {
      validate_or_throw(g);
    } catch (const InternalError& e) {
      throw InternalError("pipeline validation failed after pass '" + after +
                          "': " + e.what());
    }
    *actions = 0;
  });
}

Pipeline& Pipeline::validate_semantics(verify::Budget budget) {
  semantic_budget_ = budget;
  return *this;
}

Pipeline& Pipeline::on_pass_start(std::function<void(const std::string&)> hook) {
  pass_start_hook_ = std::move(hook);
  return *this;
}

PipelineResult Pipeline::run(const Graph& g) const {
  PARCM_OBS_TIMER("pipeline.run");
  PipelineResult res{g, {}, {}};
  // Counter values at the start of the current pass, one per slot; reused
  // across passes.
  std::vector<std::uint64_t> counters_before;
  for (const Pass& pass : passes_) {
    if (pass_start_hook_) pass_start_hook_(pass.name);
    PassStats stats;
    stats.name = pass.name;
    stats.nodes_before = res.graph.num_nodes();
    PARCM_OBS_FLIGHT(obs::FlightKind::kPassStart, pass.name,
                     stats.nodes_before, 0);
    obs::registry().counter_values(&counters_before);
    std::size_t remarks_before = obs::remarks().size();
    auto start = std::chrono::steady_clock::now();
    std::size_t actions = 0;
    {
      // Remarks emitted by the pass body default to this pass's name (inner
      // scopes — e.g. pcm inside the pcm pass — take precedence).
      PARCM_OBS_REMARK_PASS(pass.name);
      pass.fn(res.graph, &actions);
    }
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    stats.wall_ms = static_cast<double>(ns) / 1e6;
    PARCM_OBS_HIST("pipeline.pass_wall_ns", static_cast<std::uint64_t>(ns));
    PARCM_OBS_HIST(pass.wall_hist, static_cast<std::uint64_t>(ns));
    PARCM_OBS_FLIGHT(obs::FlightKind::kPassEnd, pass.name,
                     static_cast<std::uint64_t>(ns), actions);
    // Attribute the registry counters the pass moved to this PassStats.
    obs::registry().counter_deltas(counters_before, &stats.counters);
    stats.nodes_after = res.graph.num_nodes();
    stats.actions = actions;
    stats.remarks = obs::remarks().size() - remarks_before;
    res.passes.push_back(std::move(stats));
  }
  if (semantic_budget_.has_value()) {
    if (pass_start_hook_) pass_start_hook_("differential-validate");
    PassStats stats;
    stats.name = "differential-validate";
    stats.nodes_before = g.num_nodes();
    stats.nodes_after = res.graph.num_nodes();
    PARCM_OBS_FLIGHT(obs::FlightKind::kPassStart, stats.name,
                     stats.nodes_before, 0);
    auto start = std::chrono::steady_clock::now();
    res.validation = verify::differential_check(g, res.graph,
                                                *semantic_budget_);
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    stats.wall_ms = static_cast<double>(ns) / 1e6;
    stats.actions = res.validation->status == verify::Status::kDiverged;
    PARCM_OBS_COUNT("verify.pipeline.validations", 1);
    PARCM_OBS_HIST("pipeline.pass_wall_ns.differential-validate",
                   static_cast<std::uint64_t>(ns));
    PARCM_OBS_FLIGHT(obs::FlightKind::kOracleVerdict, stats.name,
                     res.validation->original_behaviours,
                     res.validation->transformed_behaviours);
    res.passes.push_back(std::move(stats));
  }
  return res;
}

Pipeline default_pipeline() {
  Pipeline p;
  p.add_pcm().add_validate().add_constprop().add_validate().add_sinking()
      .add_validate().add_dce().add_validate();
  return p;
}

}  // namespace parcm

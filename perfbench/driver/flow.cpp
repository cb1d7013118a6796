// flow workload: the full Fig. 6 flow (GP -> predict -> inflate -> GP ->
// legalize -> route -> score) with Strategy::Ours over a fixed list of MLCAD
// suite designs. One pass runs every design once. The predictor is trained
// briefly during set-up on a fixed placement sweep, so it is the same model
// for every workload seed; the seed picks the design netlists and placer
// seeds. Routed wirelength and S_R must repeat bit for bit in every pass.
//
// The traced run replays flow::run stage by stage through the public calls
// of place, features, models and route in every pass, traced or not, and
// then checks that the replay reproduces flow::run's routed wirelength and
// S_R for every design.
#include <algorithm>
#include <cmath>

#include "features/features.h"
#include "flow/flow.h"
#include "inputs.h"
#include "models/congestion_model.h"
#include "place/inflation.h"
#include "place/legalizer.h"
#include "place/placer.h"
#include "route/router.h"
#include "route/score.h"
#include "tensor/ops.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace flow = mfa::flow;
namespace models = mfa::models;
namespace place = mfa::place;
namespace route = mfa::route;
namespace train = mfa::train;
using mfa::Tensor;

// Design list (perfbench/README.md, "flow", says why): three designs whose
// routing converges in a few negotiation rounds on every seed, generated
// from the workload seed, plus Design_180 pinned at its suite seed. Congested
// designs hit the 24-iteration detailed-route cap, and how long that takes
// varies several-fold between netlist seeds; pinning the congested one keeps
// its routing work the same on every seed, so the router holds a steady
// third to half of a pass.
struct FlowDesign {
  const char* name;
  bool pinned;  // suite netlist and fixed placer seed, whatever the seed
};
constexpr FlowDesign kDesigns[] = {{"Design_136", false},
                                   {"Design_190", false},
                                   {"Design_230", false},
                                   {"Design_180", true}};
constexpr std::uint64_t kPinnedSeed = 0;
// Predictor training data: fixed, independent of the workload seed.
const std::vector<std::string> kPredictorDesigns = {"Design_116"};
constexpr std::uint64_t kPredictorSeed = 1;

struct Outcome {
  double s_r = 0.0;
  double routed_wl = 0.0;
  double gp_iterations = 0.0;
  double detailed_iterations = 0.0;
  double connections = 0.0;
  double inflated_objects = 0.0;
  bool clean = true;  // no incident, no budget cut, finite predictions
};

flow::FlowOptions flow_options(std::uint64_t seed, size_t design) {
  flow::FlowOptions opt;
  opt.grid = kGrid;
  opt.placer.seed =
      derive_seed(kDesigns[design].pinned ? kPinnedSeed : seed, 100 + design);
  return opt;
}

// flow::run(Strategy::Ours, model), one public call per stage.
Outcome replay(const netlist::Design& design, const fpga::DeviceGrid& device,
               const flow::FlowOptions& opt, models::CongestionModel& model) {
  Outcome out;
  std::unique_ptr<place::PlacementProblem> problem;
  {
    Span span("place.cluster");
    problem = std::make_unique<place::PlacementProblem>(design, device);
  }
  place::GlobalPlacer placer(*problem, opt.placer);
  {
    Span span("place.gp");
    placer.init_random();
    placer.run_until_overflow_target();
    if (placer.total_iterations() < opt.min_gp_iterations)
      placer.iterate(opt.min_gp_iterations - placer.total_iterations());
  }
  out.gp_iterations = static_cast<double>(placer.total_iterations());
  mfa::features::FeatureOptions fopt;
  fopt.grid_width = opt.grid;
  fopt.grid_height = opt.grid;
  std::vector<double> cell_x, cell_y;
  for (std::int64_t round = 0; round < opt.inflation_rounds; ++round) {
    Tensor feats;
    {
      Span span("features.extract");
      placer.placement().expand(*problem, cell_x, cell_y);
      feats = mfa::features::extract_features(design, device, cell_x, cell_y,
                                               fopt);
    }
    std::vector<float> levels;
    {
      Span span("models.predict");
      const Tensor pred = model.predict_levels(mfa::ops::reshape(
          feats, {1, feats.size(0), feats.size(1), feats.size(2)}));
      levels.assign(pred.data(), pred.data() + pred.numel());
    }
    if (!std::all_of(levels.begin(), levels.end(),
                     [](float v) { return std::isfinite(v); }))
      out.clean = false;
    {
      Span span("place.inflate");
      out.inflated_objects += static_cast<double>(
          place::apply_inflation(*problem, placer.placement(), levels,
                                 opt.grid, opt.grid, opt.inflation)
              .inflated_objects);
    }
    {
      Span span("place.post_inflation");
      placer.iterate(opt.post_inflation_iterations);
    }
  }
  place::Placement placement;
  {
    Span span("place.legalize");
    placement = placer.placement();
    place::Legalizer::legalize_macros(*problem, placement);
    placement.expand(*problem, cell_x, cell_y);
  }
  route::RouterOptions ropt = opt.router;
  const auto calibrated =
      route::calibrated_router_options(device, opt.grid, opt.grid);
  ropt.grid_width = calibrated.grid_width;
  ropt.grid_height = calibrated.grid_height;
  ropt.short_capacity = calibrated.short_capacity;
  ropt.global_capacity = calibrated.global_capacity;
  std::unique_ptr<route::GlobalRouter> router;
  {
    Span span("route.initial");
    router = std::make_unique<route::GlobalRouter>(design, device, ropt);
    router->initial_route(cell_x, cell_y);
  }
  double s_ir = 0.0;
  {
    Span span("route.analyze");
    s_ir = route::score::s_ir(router->analyze());
  }
  std::int64_t iterations = 0;
  {
    Span span("route.detailed");
    iterations = router->detailed_route();
  }
  out.s_r = route::score::s_r(s_ir, route::score::s_dr(iterations));
  out.routed_wl = router->routed_wirelength();
  out.detailed_iterations = static_cast<double>(iterations);
  out.connections = static_cast<double>(router->num_connections());
  if (placer.budget_exhausted() || router->budget_exhausted())
    out.clean = false;
  return out;
}

// flow::run(Strategy::Ours, model) itself.
Outcome run_flow_once(const netlist::Design& design,
                      const fpga::DeviceGrid& device,
                      const flow::FlowOptions& opt,
                      models::CongestionModel& model) {
  flow::RoutabilityDrivenPlacer placer(design, device, opt);
  const flow::FlowResult r = placer.run(flow::Strategy::Ours, &model);
  Outcome out;
  out.s_r = r.s_r;
  out.routed_wl = r.routed_wirelength;
  out.clean = r.incidents.empty() && !r.budget_exhausted;
  return out;
}

struct Setup {
  std::vector<netlist::Design> designs;
  std::unique_ptr<models::CongestionModel> predictor;
};

}  // namespace

Result run_flow(const Options& options) {
  Result result;
  auto& tracer = Tracer::instance();
  const std::uint64_t seed = options.seed;
  const auto device = bench_device();

  // ---- set-up: designs, briefly trained predictor, warm-up ----
  Setup s;
  tracer.set_enabled(options.trace);
  const Setups setups = timed_setups(options, result, [&](int) {
    Setup fresh;
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const FlowDesign& d : kDesigns) {
      Span span("netlist.generate");
      fresh.designs.push_back(netlist::DesignGenerator::generate(
          d.pinned ? netlist::mlcad2023_spec(d.name)
                   : seeded_spec(d.name, seed),
          device));
      const auto cells = fresh.designs.back().cells.size();
      h = fnv1a(&cells, sizeof cells, h);
    }
    const auto samples = build_dataset(kPredictorDesigns, kPredictorSeed);
    fresh.predictor = models::make_model(
        "ours", model_config(derive_seed(kPredictorSeed, 2)));
    train::TrainOptions topt;
    topt.epochs = 1;
    topt.seed = derive_seed(kPredictorSeed, 3);
    topt.resume = false;
    const auto report =
        train::Trainer::fit_resumable(*fresh.predictor, samples, topt);
    h = fnv1a(&report.final_loss, sizeof report.final_loss, h);
    // Warm-up: the first eval-mode forward grows the inference arena.
    const Tensor& f = samples.front().features;
    const Tensor probe = fresh.predictor->predict_levels(
        mfa::ops::reshape(f, {1, f.size(0), f.size(1), f.size(2)}));
    h = fnv1a(probe.data(), static_cast<size_t>(probe.numel()) * sizeof(float),
              h);
    s = std::move(fresh);
    return h;
  });

  // ---- timed passes: flow::run in the plain run, the replay in the traced
  // run, every design once per pass ----
  std::vector<Outcome> first(std::size(kDesigns));
  std::vector<double> plain_pass_s, traced_pass_s;
  std::vector<std::int64_t> traced_runs;
  Outcome traced_totals;
  const auto run_start = Clock::now();
  const std::int64_t min_passes = options.trace ? 2 : 1;
  for (std::int64_t pass = 0;
       pass < min_passes || seconds_since(run_start) < options.seconds;
       ++pass) {
    const bool traced = traced_pass(options, pass);
    tracer.set_enabled(traced);
    Tracer::set_run(pass);
    if (traced) traced_runs.push_back(pass);
    Outcome totals;
    const auto pass_start = Clock::now();
    for (size_t d = 0; d < std::size(kDesigns); ++d) {
      const auto fopt = flow_options(seed, d);
      const Outcome got =
          options.trace ? replay(s.designs[d], device, fopt, *s.predictor)
                        : run_flow_once(s.designs[d], device, fopt,
                                        *s.predictor);
      if (pass == 0) first[d] = got;
      result.attempt(got.clean && same_bits(got.s_r, first[d].s_r) &&
                         same_bits(got.routed_wl, first[d].routed_wl),
                     std::string(kDesigns[d].name) +
                         ": flow incident, budget cut or non-repeating QoR");
      totals.s_r += got.s_r;
      totals.routed_wl += got.routed_wl;
      totals.gp_iterations += got.gp_iterations;
      totals.detailed_iterations += got.detailed_iterations;
      totals.connections += got.connections;
      totals.inflated_objects += got.inflated_objects;
    }
    const double pass_s = seconds_since(pass_start);
    if (traced) {
      traced_pass_s.push_back(pass_s);
      traced_totals = totals;
    } else {
      plain_pass_s.push_back(pass_s);
    }
  }
  tracer.set_enabled(false);

  // ---- correctness: the traced run's replay against flow::run ----
  double replay_matches = 0.0;
  if (options.trace) {
    for (size_t d = 0; d < std::size(kDesigns); ++d) {
      const Outcome ref =
          run_flow_once(s.designs[d], device, flow_options(seed, d),
                        *s.predictor);
      const bool match = same_bits(first[d].s_r, ref.s_r) &&
                         same_bits(first[d].routed_wl, ref.routed_wl);
      replay_matches += match ? 1.0 : 0.0;
      result.attempt(match && ref.clean,
                     std::string(kDesigns[d].name) +
                         ": stage replay differs from flow::run");
    }
  }

  // ---- metrics ----
  const auto designs = static_cast<double>(std::size(kDesigns));
  std::vector<double> rate;
  for (const double p : plain_pass_s) rate.push_back(designs / p);
  log_values("set-up s", setups.seconds);
  log_values("plain pass s", plain_pass_s);
  if (!options.trace) {
    result.metric("setup_s", median(setups.seconds), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("throughput_per_s", median(rate), "1/s");
    // The pass time itself (flow_s): throughput_per_s is the same
    // measurement as a rate; the output contract asks for both.
    result.metric("latency_p50_ms", 1e3 * median(plain_pass_s), "ms");
    return result;
  }
  const auto by_run = tracer.self_times_by_run();
  emit_setup_layers(result, options, setups, by_run);
  for (const char* layer :
       {"place.cluster", "place.gp", "features.extract", "models.predict",
        "place.inflate", "place.post_inflation", "place.legalize",
        "route.initial", "route.analyze", "route.detailed"})
    emit_layer(result, options, layer, by_run, traced_runs);
  result.metric("place.gp_iterations", traced_totals.gp_iterations, "count");
  result.metric("route.detailed_iterations", traced_totals.detailed_iterations,
                "count");
  result.metric("route.connections", traced_totals.connections, "count");
  result.metric("place.inflated_objects", traced_totals.inflated_objects,
                "count");
  result.metric("flow.s_r", traced_totals.s_r, "score");
  result.metric("flow.routed_wl", traced_totals.routed_wl, "tiles");
  result.metric("flow.replay_match", replay_matches / designs, "ratio");
  result.metric("trace.overhead_pct", overhead_pct(plain_pass_s, traced_pass_s),
                "%");
  return result;
}

}  // namespace perfbench

// insightalign — command-line front end for the whole system. The binary
// an open-source release ships: browse the benchmark suite and recipe
// catalog, run flows with recipes, probe insights, align a model on an
// offline archive, and recommend / online-tune for a design.
//
//   insightalign suite
//   insightalign recipes
//   insightalign run --design 10 --recipes 1,8,24 [--json out.json]
//   insightalign probe --design 6
//   insightalign align --designs 1-6 --points 48 --epochs 6
//       --model model.bin --dataset archive.bin
//   insightalign recommend --model model.bin --dataset archive.bin
//       --design 14 [--k 5]
//   insightalign tune --model model.bin --dataset archive.bin
//       --design 14 --iterations 6
//
// Designs are suite indices 1..17 (optionally capped with --cells).

#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "align/cache.h"
#include "align/pipeline.h"
#include "align/recipe_model.h"
#include "cli/options.h"
#include "flow/report.h"
#include "flow/runtime_model.h"
#include "insight/insight.h"
#include "netlist/suite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/args.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace vpr;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage: insightalign <command> [flags]\n"
      "  suite                         list the 17 benchmark designs\n"
      "  recipes                       list the 40-recipe catalog\n"
      "  run --design K [--recipes a,b,c] [--cells N] [--json FILE]\n"
      "  probe --design K [--cells N]  probing run + insight vector\n"
      "  align --designs A-B [--points N] [--epochs N] [--cells N]\n"
      "        --model FILE --dataset FILE\n"
      "  recommend --model FILE --dataset FILE --design K [--k K] [--cells N]\n"
      "  tune --model FILE --dataset FILE --design K [--iterations N] [--cells N]\n"
      "       [--registry-dir DIR]           publish each round's refined\n"
      "                                      weights as a registry version\n"
      "  serve --listen PORT [--host ADDR] [--replicas N] [--max-inflight N]\n"
      "        [--queue-cap N] [--width K]   TCP recommend server (SIGTERM\n"
      "                                      drains in-flight work, then exits)\n"
      "        [--registry-dir DIR]          serve from a model registry and\n"
      "                                      hot-swap versions published there\n"
      "        [--admin-port PORT]           HTTP admin plane on the same host:\n"
      "                                      /metrics /healthz /statusz\n"
      "                                      (0 = ephemeral; printed at startup)\n"
      "  publish --registry-dir DIR --model FILE [--meta TEXT]\n"
      "                                      publish aligned weights as the\n"
      "                                      next registry version\n"
      "  serve-bench --connect [HOST:]PORT [--connections N] [--window N]\n"
      "              [--requests N] [--width K] [--deadline MS]\n"
      "              [--no-verify] [--json FILE]\n"
      "                                      network load generator\n"
      "  metrics [--format json|prometheus]   dump the metrics registry\n"
      "  trace-merge FILE... --out MERGED  fuse trace dumps from several\n"
      "                                    processes (server + clients) into\n"
      "                                    one Perfetto timeline\n"
      "global flags (any command):\n"
      "  --trace-out=FILE    record a Perfetto/Chrome trace of the run\n"
      "  --metrics-out=FILE  dump the metrics registry on exit\n"
      "                      (.prom/.txt => Prometheus text, else JSON)\n";
  std::exit(2);
}

/// Suite indices run 1..17.
int max_design_index() {
  return static_cast<int>(netlist::benchmark_suite().size());
}

flow::Design make_design(int index, int cells_cap) {
  auto traits = netlist::suite_design(index);
  if (cells_cap > 0) {
    traits.target_cells = std::min(traits.target_cells, cells_cap);
  }
  return flow::Design{traits};
}

int cmd_suite() {
  util::TablePrinter table({"Design", "Node", "Cells", "Clock (ns)",
                            "Est. tool-hours/run"});
  for (const auto& t : netlist::benchmark_suite()) {
    table.add_row(
        {t.name, util::fmt(t.feature_nm, 0) + " nm",
         std::to_string(t.target_cells), util::fmt(t.clock_period_ns, 2),
         util::fmt(flow::RuntimeModel::estimate(t, flow::FlowKnobs{})
                       .total_hours,
                   1)});
  }
  std::ostringstream out;
  table.print(out);
  std::cout << out.str() << std::flush;
  return 0;
}

int cmd_recipes() {
  util::TablePrinter table({"Id", "Category", "Recipe", "Description"});
  for (const auto& r : flow::recipe_catalog()) {
    table.add_row({std::to_string(r.id), flow::category_name(r.category),
                   r.name, r.description});
  }
  std::ostringstream out;
  table.print(out);
  std::cout << out.str() << std::flush;
  return 0;
}

int cmd_run(const util::Args& args) {
  const int design_index =
      cli::parse_design_index(args, "run", max_design_index());
  const auto design = make_design(design_index, args.get_int("cells", 0));
  flow::RecipeSet recipes;
  for (const int id : cli::parse_int_list(args.get_or("recipes", ""))) {
    recipes.set(id);
  }
  const flow::Flow flow{design};
  const auto result = flow.run(recipes);
  std::ostringstream out;
  flow::write_text_report(design, recipes, result, out);
  if (const auto json_path = args.get("json")) {
    std::ofstream os{*json_path};
    flow::to_json(design, recipes, result).write(os);
    out << "\nJSON report written to " << *json_path << '\n';
  }
  std::cout << out.str() << std::flush;
  return 0;
}

int cmd_probe(const util::Args& args) {
  const int design_index =
      cli::parse_design_index(args, "probe", max_design_index());
  const auto design = make_design(design_index, args.get_int("cells", 0));
  const flow::Flow flow{design};
  const auto probe = flow.run(flow::RecipeSet{});
  const auto iv = insight::analyze(design, probe);
  util::TablePrinter table({"#", "Insight", "Value"});
  const auto& descriptors = insight::insight_descriptors();
  for (int i = 0; i < insight::kInsightDims; ++i) {
    table.add_row({std::to_string(i),
                   descriptors[static_cast<std::size_t>(i)].description,
                   util::fmt(iv[static_cast<std::size_t>(i)], 3)});
  }
  std::ostringstream out;
  table.print(out);
  std::cout << out.str() << std::flush;
  return 0;
}

align::PipelineConfig pipeline_config(const util::Args& args) {
  align::PipelineConfig pc;
  pc.dataset.points_per_design = args.get_int("points", 48);
  pc.dataset.expert_points =
      std::min(24, pc.dataset.points_per_design / 3);
  pc.train.epochs = args.get_int("epochs", 6);
  pc.train.pairs_per_design = args.get_int("pairs", 128);
  return pc;
}

int cmd_align(const util::Args& args) {
  const auto spec = args.get("designs");
  if (!spec.has_value()) usage("align: --designs (e.g. 1-6) required");
  const auto model_path = args.get("model");
  const auto dataset_path = args.get("dataset");
  if (!model_path || !dataset_path) {
    usage("align: --model and --dataset output paths required");
  }
  std::vector<std::unique_ptr<flow::Design>> owned;
  std::vector<const flow::Design*> designs;
  for (const int k : cli::parse_design_spec(*spec)) {
    owned.push_back(std::make_unique<flow::Design>(
        make_design(k, args.get_int("cells", 2000))));
    designs.push_back(owned.back().get());
  }
  align::PipelineConfig pc = pipeline_config(args);
  align::Pipeline pipeline{pc};
  std::cout << "Building archive (" << designs.size() << " designs x "
            << pc.dataset.points_per_design << " runs) and aligning..."
            << std::endl;
  const auto metrics = pipeline.fit(designs);
  std::cout << "Final ranking accuracy: "
            << util::fmt(metrics.final_accuracy(), 3) << '\n';
  {
    std::ofstream os{*model_path, std::ios::binary};
    pipeline.save_model(os);
  }
  if (!align::save_dataset(pipeline.dataset(), pc.dataset.weights,
                           *dataset_path)) {
    std::cerr << "warning: failed to write archive " << *dataset_path
              << " (target unwritable or disk full)\n";
    return 1;
  }
  std::cout << "Saved model to " << *model_path << " and archive to "
            << *dataset_path << '\n';
  return 0;
}

align::Pipeline restored_pipeline(const util::Args& args) {
  const auto model_path = args.get("model");
  const auto dataset_path = args.get("dataset");
  if (!model_path || !dataset_path) {
    usage("--model and --dataset required");
  }
  cli::require_readable(*dataset_path, "dataset");
  cli::require_readable(*model_path, "model");
  auto dataset = align::load_dataset(*dataset_path);
  if (!dataset.has_value()) usage("cannot read dataset " + *dataset_path);
  std::ifstream is{*model_path, std::ios::binary};
  if (!is) usage("cannot read model " + *model_path);
  align::Pipeline pipeline{pipeline_config(args)};
  pipeline.restore(std::move(*dataset), is);
  return pipeline;
}

int cmd_recommend(const util::Args& args) {
  const int design_index =
      cli::parse_design_index(args, "recommend", max_design_index());
  auto pipeline = restored_pipeline(args);
  const auto design = make_design(design_index, args.get_int("cells", 2000));
  const auto recs = pipeline.recommend(design, args.get_int("k", 5));
  util::TablePrinter table(
      {"Rank", "Recipe set", "log pi", "Power (mW)", "TNS (ns)", "QoR"});
  int rank = 1;
  for (const auto& r : recs) {
    table.add_row({std::to_string(rank++), r.recipes.to_string(),
                   util::fmt(r.log_prob, 2), util::fmt(r.power, 2),
                   util::fmt_adaptive(r.tns),
                   r.score.has_value() ? util::fmt(*r.score, 3) : "n/a"});
  }
  std::ostringstream out;
  table.print(out);
  std::cout << out.str() << std::flush;
  return 0;
}

int cmd_serve_bench(const util::Args& args) {
  const auto connect = args.get("connect");
  if (!connect) {
    throw cli::UsageError("serve-bench: --connect [HOST:]PORT required");
  }
  obs::TraceRecorder::instance().set_process_name("insightalign-client");
  const auto endpoint =
      cli::parse_host_port(*connect, "serve-bench --connect");
  serve::ClientBenchOptions opts;
  opts.host = endpoint.host;
  opts.port = endpoint.port;
  opts.connections = args.get_int("connections", opts.connections);
  opts.window = args.get_int("window", opts.window);
  opts.requests = args.get_int("requests", opts.requests);
  opts.beam_width = args.get_int("width", opts.beam_width);
  const int deadline = args.get_int("deadline", 0);
  if (deadline < 0) {
    throw cli::UsageError("serve-bench: --deadline must be >= 0 ms");
  }
  opts.deadline_ms = static_cast<std::uint32_t>(deadline);
  opts.verify = !args.has("no-verify");
  opts.json_path = args.get_or("json", "");
  if (opts.connections < 1 || opts.window < 1 || opts.requests < 1 ||
      opts.beam_width < 1) {
    throw cli::UsageError(
        "serve-bench: --connections/--window/--requests/--width must be "
        ">= 1");
  }
  return serve::run_client_bench(opts);
}

/// SIGINT/SIGTERM set this; the serve loop polls it and drains. A flag is
/// all a signal handler may touch — Server::stop() joins threads, so the
/// actual drain runs on the main thread.
volatile std::sig_atomic_t g_serve_stop = 0;

void on_serve_signal(int /*signum*/) { g_serve_stop = 1; }

int cmd_serve(const util::Args& args) {
  const auto listen = args.get("listen");
  if (!listen.has_value()) {
    throw cli::UsageError("serve: --listen PORT required");
  }
  obs::TraceRecorder::instance().set_process_name("insightalign-serve");
  serve::ServerConfig config;
  config.port = cli::parse_port(*listen, "serve --listen");
  config.host = args.get_or("host", config.host);
  // --admin-port 0 binds an ephemeral port (the startup line prints the
  // real one); absent leaves the admin plane off.
  config.admin_port = args.get_int("admin-port", -1);
  if (config.admin_port < -1 || config.admin_port > 65535) {
    throw cli::UsageError("serve: --admin-port out of range 0..65535");
  }
  config.router.replicas = args.get_int("replicas", config.router.replicas);
  config.router.replica.max_inflight =
      args.get_int("max-inflight", config.router.replica.max_inflight);
  const int queue_cap = args.get_int(
      "queue-cap", static_cast<int>(config.router.replica.queue_capacity));
  config.router.replica.max_beam_width =
      args.get_int("width", config.router.replica.max_beam_width);
  if (config.router.replicas < 1 ||
      config.router.replica.max_inflight < 1 || queue_cap < 1 ||
      config.router.replica.max_beam_width < 1) {
    throw cli::UsageError(
        "serve: --replicas/--max-inflight/--queue-cap/--width must be >= 1");
  }
  config.router.replica.queue_capacity =
      static_cast<std::size_t>(queue_cap);

  // The same seeded model every serve bench and test replays against, so
  // remote clients can bitwise-verify responses out of the box.
  util::Rng rng{7};
  const align::RecipeModel model{align::ModelConfig{}, rng};

  // --registry-dir serves from a versioned registry instead: highest
  // persisted snapshot at startup (the seeded model is published as v1
  // into an empty registry), then hot-swap on every version that lands in
  // the directory — `insightalign publish` from another process.
  std::shared_ptr<serve::ModelRegistry> registry;
  if (const auto dir = args.get("registry-dir")) {
    serve::RegistryConfig rc;
    rc.dir = *dir;
    registry =
        std::make_shared<serve::ModelRegistry>(align::ModelConfig{}, rc);
    if (registry->current_version() == 0) {
      registry->publish(model.state(), "seed model (serve startup)");
    }
  }
  std::unique_ptr<serve::Server> server =
      registry != nullptr
          ? std::make_unique<serve::Server>(registry, config)
          : std::make_unique<serve::Server>(model, config);

  std::signal(SIGINT, on_serve_signal);
  std::signal(SIGTERM, on_serve_signal);
  std::cout << "insightalign serve: listening on " << config.host << ':'
            << server->port() << " (" << config.router.replicas
            << " replicas, max-inflight "
            << config.router.replica.max_inflight << "/replica, queue-cap "
            << queue_cap << "/replica"
            << (registry != nullptr
                    ? ", registry v" +
                          std::to_string(registry->current_version())
                    : std::string{})
            << (server->admin_port() >= 0
                    ? ", admin " + std::to_string(server->admin_port())
                    : std::string{})
            << ")" << std::endl;

  int ticks = 0;
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Poll the registry directory about once a second; replicas adopt new
    // versions at their next batch boundary.
    if (registry != nullptr && ++ticks % 20 == 0) registry->scan_dir();
  }
  std::cerr << "insightalign serve: signal received, draining...\n";
  server->stop();

  const auto stats = server->stats();
  util::Json summary = util::Json::object();
  summary["connections"] = static_cast<double>(stats.connections);
  summary["requests"] = static_cast<double>(stats.requests);
  summary["protocol_errors"] = static_cast<double>(stats.protocol_errors);
  summary["bad_requests"] = static_cast<double>(stats.bad_requests);
  summary["router"] = server->router().counters().to_json();
  if (registry != nullptr) {
    summary["model_version"] =
        static_cast<double>(registry->current_version());
    summary["registry"] = registry->to_json();
  }
  std::cout << summary.dump() << std::endl;
  return 0;
}

int cmd_publish(const util::Args& args) {
  const auto dir = args.get("registry-dir");
  const auto model_path = args.get("model");
  if (!dir || !model_path) {
    throw cli::UsageError("publish: --registry-dir and --model required");
  }
  cli::require_readable(*model_path, "model");
  std::ifstream is{*model_path, std::ios::binary};
  util::Rng rng{7};
  align::RecipeModel model{align::ModelConfig{}, rng};
  model.load(is);  // throws on count mismatch / truncation

  serve::RegistryConfig rc;
  rc.dir = *dir;
  serve::ModelRegistry registry{align::ModelConfig{}, rc};
  const std::uint64_t version =
      registry.publish(model.state(), "published from " + *model_path +
                                          (args.has("meta")
                                               ? ": " + args.get_or("meta", "")
                                               : std::string{}));
  const auto published = registry.version(version);
  std::cout << "published " << *model_path << " as v" << version
            << " (checksum "
            << (published != nullptr ? published->checksum() : 0)
            << ") into " << *dir << std::endl;
  return 0;
}

int cmd_trace_merge(const util::Args& args) {
  const auto& positional = args.positional();
  const std::vector<std::string> files(positional.begin() + 1,
                                       positional.end());
  const auto out = args.get("out");
  if (files.empty() || !out.has_value()) {
    throw cli::UsageError("trace-merge: FILE... and --out MERGED required");
  }
  std::string error;
  if (!obs::trace_merge_files(files, *out, &error)) {
    std::cerr << "error: trace-merge: " << error << '\n';
    return 1;
  }
  std::cout << "merged " << files.size() << " trace file"
            << (files.size() == 1 ? "" : "s") << " into " << *out
            << std::endl;
  return 0;
}

int cmd_metrics(const util::Args& args) {
  const cli::MetricsFormat format = cli::parse_metrics_format(args);
  auto& registry = obs::MetricsRegistry::instance();
  std::ostringstream out;
  if (format == cli::MetricsFormat::kPrometheus) {
    registry.write_prometheus(out);
  } else {
    registry.to_json().write(out);
    out << '\n';
  }
  std::cout << out.str() << std::flush;
  return 0;
}

int cmd_tune(const util::Args& args) {
  const int design_index =
      cli::parse_design_index(args, "tune", max_design_index());
  auto pipeline = restored_pipeline(args);
  const auto design = make_design(design_index, args.get_int("cells", 2000));
  align::OnlineConfig oc;
  oc.iterations = args.get_int("iterations", 6);
  // --registry-dir persists each round's refined weights as a registry
  // version: the tuning run becomes resumable/auditable, and a running
  // `insightalign serve --registry-dir` on the same directory hot-swaps
  // to every round.
  std::shared_ptr<serve::ModelRegistry> registry;
  if (const auto dir = args.get("registry-dir")) {
    serve::RegistryConfig rc;
    rc.dir = *dir;
    registry = std::make_shared<serve::ModelRegistry>(
        pipeline.model().config(), rc);
    oc.on_iteration = [&registry,
                       design_index](const align::OnlineSnapshot& snapshot) {
      registry->publish(snapshot.state,
                        "tune design " + std::to_string(design_index) +
                            " iteration " +
                            std::to_string(snapshot.iteration) +
                            " best_score " +
                            util::fmt(snapshot.best_score_so_far, 4));
    };
  }
  const auto result = pipeline.tune(design, oc);
  util::TablePrinter table(
      {"Iter", "Best Power (mW)", "Best TNS (ns)", "Best QoR"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const auto& it = result.iterations[i];
    table.add_row({std::to_string(i + 1),
                   util::fmt(it.best_power_so_far, 2),
                   util::fmt_adaptive(it.best_tns_so_far),
                   util::fmt(it.best_score_so_far, 3)});
  }
  std::ostringstream out;
  table.print(out);
  if (registry != nullptr) {
    out << "Published " << registry->published_total()
        << " versions (current v" << registry->current_version()
        << ") into " << args.get_or("registry-dir", "") << '\n';
  }
  if (const auto model_path = args.get("model-out")) {
    std::ofstream os{*model_path, std::ios::binary};
    pipeline.save_model(os);
    out << "Tuned model saved to " << *model_path << '\n';
  }
  std::cout << out.str() << std::flush;
  return 0;
}

int run_command(cli::Command command, const util::Args& args) {
  switch (command) {
    case cli::Command::kSuite:
      return cmd_suite();
    case cli::Command::kRecipes:
      return cmd_recipes();
    case cli::Command::kRun:
      return cmd_run(args);
    case cli::Command::kProbe:
      return cmd_probe(args);
    case cli::Command::kAlign:
      return cmd_align(args);
    case cli::Command::kRecommend:
      return cmd_recommend(args);
    case cli::Command::kTune:
      return cmd_tune(args);
    case cli::Command::kServe:
      return cmd_serve(args);
    case cli::Command::kServeBench:
      return cmd_serve_bench(args);
    case cli::Command::kPublish:
      return cmd_publish(args);
    case cli::Command::kMetrics:
      return cmd_metrics(args);
    case cli::Command::kTraceMerge:
      return cmd_trace_merge(args);
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args{argc, argv};
    if (args.positional().empty()) usage();
    const cli::Command command = cli::parse_command(args.positional().front());
    // Observability flags, valid on every subcommand. Tracing is switched
    // on before any work runs so the whole invocation lands in the trace.
    const auto trace_out = cli::parse_output_path(args, "trace-out");
    const auto metrics_out = cli::parse_output_path(args, "metrics-out");
    if (trace_out) obs::TraceRecorder::instance().set_enabled(true);

    int rc = run_command(command, args);

    if (trace_out) {
      auto& recorder = obs::TraceRecorder::instance();
      recorder.set_enabled(false);
      if (!recorder.write_json_file(*trace_out)) {
        std::cerr << "error: cannot write trace " << *trace_out << '\n';
        rc = rc == 0 ? 1 : rc;
      }
    }
    if (metrics_out &&
        !obs::MetricsRegistry::instance().write_file(*metrics_out)) {
      std::cerr << "error: cannot write metrics " << *metrics_out << '\n';
      rc = rc == 0 ? 1 : rc;
    }
    return rc;
  } catch (const cli::UsageError& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

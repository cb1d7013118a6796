#include "workloads.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

extern char** environ;

namespace perfbench {
namespace {

// Child side of timed_setups: runs set-up k, prints one "setup <seconds>
// <digest>" line, a "layer <name> <wall> <cpu>" line per set-up layer and a
// "violation <what>" line per failed check, then exits without running
// destructors (server and client threads end with the process).
[[noreturn]] void report_setup(Result& result,
                               const std::function<std::uint64_t(int)>& once,
                               int k) {
  Tracer::set_run(setup_run_id(k));
  const auto start = Clock::now();
  const std::uint64_t digest = once(k);
  const double seconds = seconds_since(start);
  Tracer::set_run(0);
  std::printf("setup %.17g %llu\n", seconds,
              static_cast<unsigned long long>(digest));
  const auto by_run = Tracer::instance().self_times_by_run();
  const auto run = by_run.find(setup_run_id(k));
  if (run != by_run.end())
    for (const auto& [name, layer] : run->second)
      std::printf("layer %s %.17g %.17g\n", name.c_str(), layer.wall_s,
                  layer.cpu_s);
  for (const std::string& v : result.violations())
    std::printf("violation %s\n", v.c_str());
  std::fflush(stdout);
  std::_Exit(0);
}

// Runs this binary with --setup-only k and returns its stdout, or "" if it
// could not be started or did not exit with code 0.
std::string run_setup_child(const Options& options, int k) {
  const char* exe = "/proc/self/exe";
  const std::vector<std::string> args = {
      exe,       "--workload", options.workload,
      "--seed",  std::to_string(options.seed),
      "--seconds", "1",
      "--trace", options.trace ? "1" : "0",
      "--setup-only", std::to_string(k)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return {};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int err =
      posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (err == 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof buf);
      if (n > 0) {
        out.append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (err != 0) return {};
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? out : std::string();
}

}  // namespace

Setups timed_setups(const Options& options, Result& result,
                    const std::function<std::uint64_t(int)>& once) {
  if (options.setup_only >= 0) report_setup(result, once, options.setup_only);
  Setups setups;
  std::vector<std::uint64_t> digests;
  for (int k = 0; k + 1 < kSetups; ++k) {
    const std::string what = "set-up " + std::to_string(k);
    std::istringstream lines(run_setup_child(options, k));
    bool reported = false;
    for (std::string line; std::getline(lines, line);) {
      std::istringstream in(line);
      std::string tag;
      in >> tag;
      if (tag == "setup") {
        double seconds = 0.0;
        std::uint64_t digest = 0;
        if (in >> seconds >> digest) {
          setups.seconds.push_back(seconds);
          digests.push_back(digest);
          reported = true;
        }
      } else if (tag == "layer") {
        std::string name;
        Tracer::Layer layer;
        if (in >> name >> layer.wall_s >> layer.cpu_s)
          setups.layers[setup_run_id(k)][name] = layer;
      } else if (tag == "violation") {
        std::string rest;
        std::getline(in >> std::ws, rest);
        result.fail(what + ": " + rest);
      }
    }
    if (!reported) result.fail(what + " failed in its child process");
  }
  const int k = kSetups - 1;
  Tracer::set_run(setup_run_id(k));
  const auto start = Clock::now();
  digests.push_back(once(k));
  setups.seconds.push_back(seconds_since(start));
  Tracer::set_run(0);
  log_values("peak rss MB after set-up", {peak_rss_mb()});
  for (const std::uint64_t d : digests)
    result.attempt(d == digests.back(), "set-up inputs differ between set-ups");
  return setups;
}

void emit_layer(Result& result, const Options& options,
                const std::string& layer, const LayersByRun& by_run,
                const std::vector<std::int64_t>& runs) {
  std::vector<double> wall, cpu;
  double wall_sum = 0.0, cpu_sum = 0.0;
  for (const std::int64_t run : runs) {
    double w = 0.0, c = 0.0;
    const auto r = by_run.find(run);
    if (r != by_run.end()) {
      const auto l = r->second.find(layer);
      if (l != r->second.end()) {
        w = l->second.wall_s;
        c = l->second.cpu_s;
      }
    }
    wall.push_back(w);
    cpu.push_back(c);
    wall_sum += w;
    cpu_sum += c;
  }
  result.metric(layer + "_s", median(wall), "s");
  result.metric(layer + "_cpu_s", median(cpu), "s");
  result.metric(layer + "_par_eff",
                wall_sum > 0.0 ? cpu_sum / (wall_sum * options.threads) : 0.0,
                "ratio");
}

void emit_setup_layers(Result& result, const Options& options,
                       const Setups& setups, const LayersByRun& by_run) {
  LayersByRun all = by_run;
  for (const auto& [run, layers] : setups.layers) all[run] = layers;
  std::vector<std::int64_t> runs;
  for (int k = 0; k < kSetups; ++k) runs.push_back(setup_run_id(k));
  emit_layer(result, options, "netlist.generate", all, runs);
  emit_layer(result, options, "train.dataset", all, runs);
}

void log_values(const char* what, const std::vector<double>& values) {
  std::string line = std::string("mfa_perfbench: ") + what + ":";
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.4g", v);
    line += buf;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

double overhead_pct(const std::vector<double>& plain,
                    const std::vector<double>& traced) {
  const double p = median(plain);
  if (p <= 0.0 || traced.empty()) return 0.0;
  return (median(traced) / p - 1.0) * 100.0;
}

}  // namespace perfbench

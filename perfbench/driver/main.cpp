// End-to-end benchmark driver. Runs one workload (train, serve or flow) in
// this process and prints, as its last stdout line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Before it, a "host:" line records the host fingerprint. perfbench/run.py
// builds this binary, pins MFA_THREADS and checks the output against
// BENCHMARK.json; see perfbench/README.md.
//
// Usage: mfa_perfbench --workload train|serve|flow --seed N --seconds S
//                      --trace 0|1 [--trace-file out.json]
//        (--setup-only K: internal, one cold set-up; see timed_setups)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "spans.h"
#include "tensor/gemm.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mfa_perfbench: %s\nusage: mfa_perfbench --workload "
               "train|serve|flow --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-file") {
      o.trace_file = value;
    } else if (flag == "--setup-only") {
      o.setup_only = std::atoi(value.c_str());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// CPU brand string from cpuid (x86), or "unknown".
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string out;
  for (const char* p = brand; *p; ++p)
    if (*p != '"' && *p != '\\' && (out.size() || *p != ' ')) out += *p;
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out.empty() ? "unknown" : out;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse(argc, argv);
  mfa::log::set_level(mfa::log::Level::Warn);
  const char* env_threads = std::getenv("MFA_THREADS");
  options.threads = env_threads ? std::max(1, std::atoi(env_threads)) : 1;

  Result result;
  if (options.workload == "train") {
    result = run_train(options);
  } else if (options.workload == "serve") {
    result = run_serve(options);
  } else if (options.workload == "flow") {
    result = run_flow(options);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }

  if (options.trace && !options.trace_file.empty() &&
      !Tracer::instance().write_chrome_trace(options.trace_file))
    result.fail("cannot write trace file " + options.trace_file);
  for (const std::string& v : result.violations())
    std::fprintf(stderr, "mfa_perfbench: violation: %s\n", v.c_str());

  std::printf(
      "host: {\"cpu\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
      "\"mfa_threads\": %d, \"pool_threads\": %d, \"spans\": %zu}\n",
      cpu_model().c_str(), std::thread::hardware_concurrency(),
      mfa::kernels::variant_name(mfa::kernels::active_variant()),
      options.threads, mfa::common::ThreadPool::instance().size(),
      Tracer::instance().size());
  std::printf("%s\n", result.json().c_str());
  return 0;
}

#include "inputs.h"

#include "bench.h"
#include "common/rng.h"
#include "spans.h"

namespace perfbench {

namespace train = mfa::train;

fpga::DeviceGrid bench_device() {
  return mfa::fpga::DeviceGrid::make_xcvu3p_like(60, 40);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return mfa::Rng(seed).fork(tag).next_u64();
}

netlist::DesignSpec seeded_spec(const std::string& name, std::uint64_t seed) {
  netlist::DesignSpec spec = mfa::netlist::mlcad2023_spec(name);
  spec.seed = derive_seed(seed, spec.seed);
  return spec;
}

std::vector<train::Sample> build_dataset(
    const std::vector<std::string>& designs, std::uint64_t seed) {
  const auto device = bench_device();
  train::DatasetOptions opt;
  opt.grid = kGrid;
  opt.placements_per_design = 2;
  opt.placer_iterations = 60;
  opt.seed = derive_seed(seed, 1);
  std::vector<train::Sample> all;
  for (const std::string& name : designs) {
    Span span("train.dataset");
    auto part = train::DatasetBuilder::build_for_design(
        seeded_spec(name, seed), device, opt);
    for (auto& s : part) all.push_back(std::move(s));
  }
  return all;
}

std::uint64_t dataset_hash(const std::vector<train::Sample>& samples) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& s : samples) {
    h = fnv1a(s.features.data(),
              static_cast<std::size_t>(s.features.numel()) * sizeof(float), h);
    h = fnv1a(s.label.data(),
              static_cast<std::size_t>(s.label.numel()) * sizeof(float), h);
  }
  return h;
}

mfa::models::ModelConfig model_config(std::uint64_t seed) {
  mfa::models::ModelConfig config;
  config.grid = kGrid;
  config.seed = seed;
  return config;
}

}  // namespace perfbench

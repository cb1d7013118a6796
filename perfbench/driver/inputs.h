// Seeded inputs of the benchmark. The workload seed picks the design
// variants (generator seed), the placement sweep and the placer seeds; the
// program under test only ever sees the generated designs, placements and
// feature stacks. The same seed gives the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/device.h"
#include "models/config.h"
#include "netlist/generator.h"
#include "train/dataset.h"

namespace perfbench {

namespace fpga = mfa::fpga;
namespace netlist = mfa::netlist;

/// The experiment device: the XCVU3P-like columnar fabric at the scale the
/// repository's examples use (60 x 40 sites).
fpga::DeviceGrid bench_device();

/// Feature / router grid of every workload (the library default, 64 x 64).
constexpr std::int64_t kGrid = 64;

/// MLCAD 2023 suite design `name` with its generator seed mixed with the
/// workload seed: same netlist statistics, different netlist.
netlist::DesignSpec seeded_spec(const std::string& name, std::uint64_t seed);

/// Seed for one consumer of the workload seed (tags keep streams apart).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// §V-A dataset (placement sweep: 2 placements per design at 60 GP
/// iterations, plus rotation augmentation) over the given designs, each
/// wrapped in a "train.dataset" span.
std::vector<mfa::train::Sample> build_dataset(
    const std::vector<std::string>& designs, std::uint64_t seed);

/// Designs of the train and serve sample set (16 samples).
inline const std::vector<std::string> kSampleDesigns = {"Design_136",
                                                        "Design_190"};

/// FNV-1a over every sample's features and labels (bit-identity of setups).
std::uint64_t dataset_hash(const std::vector<mfa::train::Sample>& samples);

/// Model configuration of every workload: library defaults at kGrid.
mfa::models::ModelConfig model_config(std::uint64_t seed);

}  // namespace perfbench

// Policy tuning: exploring PD's delta parameter on your own workload.
//
// The analysis fixes delta = alpha^(1-alpha) to prove alpha^alpha-
// competitiveness, but an operator may care about average-case cost.
// This example sweeps delta around the optimum on a workload whose value
// scale is also swept, printing cost and acceptance so the trade-off is
// visible: small delta = greedy admission (risk: energy blowup on dense
// bursts), large delta = picky admission (risk: lost revenue).
//
//   $ ./policy_tuning [num_jobs] [num_cpus] [seed]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/rejection.hpp"
#include "core/run.hpp"
#include "sim/metrics.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace pss;

  const int num_jobs = argc > 1 ? std::atoi(argv[1]) : 60;
  const int num_cpus = argc > 2 ? std::atoi(argv[2]) : 2;
  const std::uint64_t base_seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  const model::Machine machine{num_cpus, 3.0};
  const double delta_star = core::optimal_delta(machine.alpha);
  const int seeds = 10;

  std::cout << "=== PD delta tuning (m = " << num_cpus
            << ", alpha = 3, delta* = " << delta_star << ") ===\n";

  for (double value_scale : {0.5, 1.5, 4.0}) {
    std::cout << "\n--- value scale " << value_scale
              << " (job value ~ scale * energy-fair price) ---\n";
    std::cout << std::setw(14) << "delta/delta*" << std::setw(12)
              << "mean cost" << std::setw(12) << "accepted%" << std::setw(14)
              << "cert ratio" << "\n";
    for (double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      sim::Aggregate cost, accepted, cert;
      for (std::uint64_t seed = base_seed; seed < base_seed + seeds; ++seed) {
        workload::UniformConfig config;
        config.num_jobs = num_jobs;
        config.value_scale = value_scale;
        const auto instance =
            workload::uniform_random(config, machine, seed);
        const auto pd =
            core::run_pd(instance, {.delta = factor * delta_star});
        cost.add(pd.cost.total());
        int acc = 0;
        for (bool a : pd.accepted) acc += a ? 1 : 0;
        accepted.add(100.0 * acc / double(instance.num_jobs()));
        cert.add(pd.certified_ratio);
      }
      std::cout << std::fixed << std::setprecision(3) << std::setw(14)
                << factor << std::setw(12) << cost.mean() << std::setw(12)
                << accepted.mean() << std::setw(14) << cert.mean() << "\n";
    }
  }
  std::cout << "\nNote: only delta = delta* carries the alpha^alpha "
               "guarantee (Lemmas 9 and 11 pin it from both sides); "
               "anything else is at-your-own-risk tuning.\n";
  return 0;
}

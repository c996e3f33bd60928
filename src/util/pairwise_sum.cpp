#include "util/pairwise_sum.hpp"

#include <cstddef>

namespace pss::util {

double pairwise_sum(std::span<const double> xs) {
  const std::size_t n = xs.size();
  const double* x = xs.data();
  // The leaves of the recursion written out: each case is the h = n/2
  // tree itself, operation for operation, just without the calls.
  switch (n) {
    case 0: return 0.0;
    case 1: return x[0];
    case 2: return x[0] + x[1];
    case 3: return x[0] + (x[1] + x[2]);
    case 4: return (x[0] + x[1]) + (x[2] + x[3]);
    case 5: return (x[0] + x[1]) + (x[2] + (x[3] + x[4]));
    case 6: return (x[0] + (x[1] + x[2])) + (x[3] + (x[4] + x[5]));
    case 7: return (x[0] + (x[1] + x[2])) + ((x[3] + x[4]) + (x[5] + x[6]));
    case 8:
      return ((x[0] + x[1]) + (x[2] + x[3])) + ((x[4] + x[5]) + (x[6] + x[7]));
    default: break;
  }
  const std::size_t h = n / 2;
  return pairwise_sum(xs.first(h)) + pairwise_sum(xs.subspan(h));
}

}  // namespace pss::util

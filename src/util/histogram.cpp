#include "util/histogram.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace vpr::util {

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  if (!(lo < hi) || bins < 1) {
    throw std::invalid_argument("Histogram: need lo < hi and bins >= 1");
  }
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  const int bin = std::clamp(static_cast<int>(t * bins()), 0, bins() - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::add_all(const std::vector<double>& xs) {
  for (const double x : xs) add(x);
}

long Histogram::count(int bin) const {
  if (bin < 0 || bin >= bins()) throw std::out_of_range("Histogram::count");
  return counts_[static_cast<std::size_t>(bin)];
}

double Histogram::bin_lo(int bin) const {
  if (bin < 0 || bin >= bins()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + (hi_ - lo_) * bin / bins();
}

double Histogram::bin_hi(int bin) const {
  if (bin < 0 || bin >= bins()) throw std::out_of_range("Histogram::bin_hi");
  return lo_ + (hi_ - lo_) * (bin + 1) / bins();
}

std::string Histogram::render(int width) const {
  width = std::max(width, 1);
  long max_count = 1;
  for (const long c : counts_) max_count = std::max(max_count, c);
  std::ostringstream os;
  for (int b = 0; b < bins(); ++b) {
    const long c = count(b);
    const int bar =
        static_cast<int>(static_cast<double>(c) * width / max_count);
    os << '[' << std::setw(8) << std::fixed << std::setprecision(3)
       << bin_lo(b) << ',' << std::setw(8) << bin_hi(b) << ") "
       << std::string(static_cast<std::size_t>(bar), '#') << ' ' << c
       << '\n';
  }
  return os.str();
}

}  // namespace vpr::util

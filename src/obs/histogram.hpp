// Log-bucketed histogram: p50/p99/p999 without storing samples.
//
// Values land in power-of-two buckets (bucket 0 holds value 0, bucket b >= 1
// holds [2^(b-1), 2^b - 1]); 64 buckets cover the full non-negative int64
// range, so recording never saturates into an overflow bin. Quantiles are
// recovered by walking the cumulative counts and interpolating linearly
// inside the target bucket — an upper-bound error of one bucket width
// (a factor-of-two resolution), which is exactly the fidelity the latency
// and stall-age ramps need while keeping the store a fixed 64-slot array:
// allocation-free, mergeable, and byte-stable for deterministic streams.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace flexnet {

class BinReader;
class BinWriter;

class LogHistogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index for a value (negative values clamp to bucket 0).
  [[nodiscard]] static int bucket_of(std::int64_t v) noexcept {
    if (v <= 0) return 0;
    return std::bit_width(static_cast<std::uint64_t>(v));
  }
  /// Inclusive value range [lo, hi] covered by bucket `b`.
  [[nodiscard]] static std::int64_t bucket_lo(int b) noexcept {
    return b <= 0 ? 0 : std::int64_t{1} << (b - 1);
  }
  [[nodiscard]] static std::int64_t bucket_hi(int b) noexcept {
    if (b <= 0) return 0;
    if (b >= 63) return INT64_MAX;
    return (std::int64_t{1} << b) - 1;
  }

  void record(std::int64_t v) noexcept {
    ++counts_[static_cast<std::size_t>(bucket_of(v))];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  void merge(const LogHistogram& other) noexcept {
    for (int b = 0; b < kBuckets; ++b) counts_[static_cast<std::size_t>(b)] +=
        other.counts_[static_cast<std::size_t>(b)];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() noexcept {
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] std::int64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::int64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }

  /// Quantile estimate for q in [0, 1]: linear interpolation inside the
  /// bucket holding the ceil(q * count)-th sample, clamped by the recorded
  /// maximum. 0 when empty. Pure integer/double arithmetic on the fixed
  /// bucket bounds, so identical histograms always yield identical bytes.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return quantile(0.999); }

  /// Snapshot codec (fixed layout: 64 bucket counts + the three scalars).
  void save_state(BinWriter& out) const;
  void restore_state(BinReader& in);

  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;

 private:
  std::array<std::int64_t, kBuckets> counts_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace flexnet

#include "align/beam.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/infer.h"

namespace vpr::align {

namespace {

void check_width(int num_recipes, int beam_width) {
  if (beam_width < 1) throw std::invalid_argument("beam_search: width < 1");
  if (num_recipes > 64) {
    throw std::invalid_argument("beam_search: > 64 recipes unsupported");
  }
}

}  // namespace

BeamDecoder::BeamDecoder(DecodeSession& session, int beam_width)
    : session_(&session),
      n_(session.positions()),
      width_(beam_width) {
  check_width(n_, beam_width);
  if (session.lanes() < 2 * beam_width) {
    throw std::invalid_argument(
        "BeamDecoder: session needs 2 * beam_width lanes");
  }
  for (int lane = 0; lane < 2 * beam_width; ++lane) {
    session.reset_lane(lane);
  }
  beam_.push_back(Partial{});  // lane 0, bank 0
  fill_pending();
}

BeamDecoder::BeamDecoder(int num_recipes, int beam_width)
    : n_(num_recipes), width_(beam_width) {
  check_width(num_recipes, beam_width);
  beam_.push_back(Partial{});
  fill_pending();
}

void BeamDecoder::fill_pending() {
  refs_.clear();
  if (done()) return;
  refs_.reserve(beam_.size());
  for (const Partial& partial : beam_) {
    const int prev =
        t_ == 0 ? 0 : static_cast<int>((partial.mask >> (t_ - 1)) & 1U);
    refs_.push_back(StepRef{partial.lane, prev, partial.mask});
  }
}

void BeamDecoder::apply(std::span<const double> probs) {
  if (done()) {
    throw std::invalid_argument("BeamDecoder: already complete");
  }
  if (probs.size() != beam_.size()) {
    throw std::invalid_argument("BeamDecoder: probs/pending size mismatch");
  }
  // Expand every beam entry with r_t in {0, 1} and keep the best width.
  expanded_.clear();
  expanded_.reserve(beam_.size() * 2);
  for (std::size_t i = 0; i < beam_.size(); ++i) {
    const Partial& partial = beam_[i];
    // Guard the log against exact 0/1 saturation.
    const double p = std::clamp(probs[i], 1e-12, 1.0 - 1e-12);
    expanded_.push_back(
        {partial.mask, partial.score + std::log(1.0 - p), partial.lane});
    expanded_.push_back({partial.mask | (1ULL << t_),
                         partial.score + std::log(p), partial.lane});
  }
  const auto keep = std::min<std::size_t>(static_cast<std::size_t>(width_),
                                          expanded_.size());
  std::partial_sort(expanded_.begin(),
                    expanded_.begin() + static_cast<std::ptrdiff_t>(keep),
                    expanded_.end(), [](const Partial& a, const Partial& b) {
                      return a.score > b.score;
                    });
  expanded_.resize(keep);
  std::swap(beam_, expanded_);
  if (session_ != nullptr) {
    // The parent's step already appended position t's K/V and both
    // children share it (position t consumed r_{t-1}, not r_t). A
    // parent's first surviving child keeps the parent's lane; each
    // further child clones it into a lane no surviving parent occupies.
    // Parent lanes are only read during this pass, so duplicated parents
    // stay intact until every child has resolved.
    constexpr char kFree = 0, kParent = 1, kClaimed = 2;
    lane_state_.assign(static_cast<std::size_t>(2 * width_), kFree);
    for (const Partial& survivor : beam_) {
      lane_state_[static_cast<std::size_t>(survivor.lane)] = kParent;
    }
    int next_free = 0;
    for (Partial& survivor : beam_) {
      auto& state = lane_state_[static_cast<std::size_t>(survivor.lane)];
      if (state == kParent) {
        state = kClaimed;
        continue;
      }
      while (lane_state_[static_cast<std::size_t>(next_free)] != kFree) {
        ++next_free;
      }
      session_->copy_lane(next_free, survivor.lane);
      lane_state_[static_cast<std::size_t>(next_free)] = kClaimed;
      survivor.lane = next_free;
    }
  }
  ++t_;
  fill_pending();
}

std::vector<BeamCandidate> BeamDecoder::result() const {
  std::vector<BeamCandidate> out;
  out.reserve(beam_.size());
  for (const Partial& partial : beam_) {
    out.push_back({flow::RecipeSet::from_u64(partial.mask), partial.score});
  }
  return out;
}

std::vector<BeamCandidate> beam_search(const RecipeModel& model,
                                       std::span<const double> insight,
                                       int beam_width) {
  check_width(model.config().num_recipes, beam_width);
  DecodeSession session = model.decode(insight, 2 * beam_width);
  BeamDecoder decoder{session, beam_width};
  std::vector<BatchStep> steps;
  std::vector<double> probs;
  while (!decoder.done()) {
    // Every live beam entry advances in one stacked forward.
    steps.clear();
    for (const BeamDecoder::StepRef& ref : decoder.pending()) {
      steps.push_back({&session, ref.lane, ref.prev_decision});
    }
    probs.resize(steps.size());
    DecodeSession::step_batch(steps, probs.data());
    decoder.apply(probs);
  }
  return decoder.result();
}

std::vector<BeamCandidate> beam_search_reference(
    const RecipeModel& model, std::span<const double> insight,
    int beam_width) {
  const int n = model.config().num_recipes;
  check_width(n, beam_width);
  BeamDecoder decoder{n, beam_width};
  std::vector<double> probs;
  std::vector<int> prefix;
  prefix.reserve(static_cast<std::size_t>(n));
  while (!decoder.done()) {
    const int t = decoder.position();
    const auto refs = decoder.pending();
    probs.resize(refs.size());
    prefix.resize(static_cast<std::size_t>(t));
    for (std::size_t i = 0; i < refs.size(); ++i) {
      for (int b = 0; b < t; ++b) {
        prefix[static_cast<std::size_t>(b)] =
            static_cast<int>((refs[i].prefix_mask >> b) & 1U);
      }
      // Full tape forward over the prefix.
      const nn::Tensor logits = model.forward_logits(insight, prefix, t + 1);
      probs[i] = nn::infer::stable_sigmoid(logits.at(t, 0));
    }
    decoder.apply(probs);
  }
  return decoder.result();
}

}  // namespace vpr::align
